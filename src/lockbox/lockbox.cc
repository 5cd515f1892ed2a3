#include "src/lockbox/lockbox.h"

#include "src/crypto/aead.h"

namespace discfs {

Bytes GenerateContentKey(const std::function<Bytes(size_t)>& rand_bytes) {
  return rand_bytes(Aead::kKeySize);
}

Bytes SealPayload(const Bytes& content_key, const Bytes& plaintext,
                  const std::function<Bytes(size_t)>& rand_bytes) {
  Aead aead(content_key);
  Bytes out = rand_bytes(Aead::kNonceSize);
  out.resize(Aead::kNonceSize + plaintext.size() + Aead::kTagSize);
  aead.Seal(out.data(), /*aad=*/nullptr, 0, plaintext.data(), plaintext.size(),
            out.data() + Aead::kNonceSize);
  return out;
}

Result<Bytes> OpenPayload(const Bytes& content_key, const Bytes& sealed) {
  // The key comes out of a recipient's wrapped-key blob, which any granter
  // can fill with a secret of any length.
  if (content_key.size() != Aead::kKeySize) {
    return InvalidArgumentError("content key is not 32 bytes");
  }
  if (sealed.size() < Aead::kNonceSize + Aead::kTagSize) {
    return InvalidArgumentError("sealed payload shorter than nonce + tag");
  }
  Aead aead(content_key);
  Bytes plain(sealed.size() - Aead::kNonceSize - Aead::kTagSize);
  RETURN_IF_ERROR(aead.Open(sealed.data(), /*aad=*/nullptr, 0,
                            sealed.data() + Aead::kNonceSize,
                            sealed.size() - Aead::kNonceSize, plain.data()));
  return plain;
}

Result<NfsFh> LockboxService::BoxDir(bool create) {
  std::lock_guard<std::mutex> lock(init_mu_);
  ASSIGN_OR_RETURN(NfsFattr root, nfs_->GetRoot());
  NfsFh dir = root.fh;
  for (const char* name : {".lockbox", "box"}) {
    Result<NfsFattr> found = nfs_->Lookup(dir, name);
    if (found.ok()) {
      dir = found->fh;
      continue;
    }
    if (found.status().code() != StatusCode::kNotFound || !create) {
      return found.status();
    }
    ASSIGN_OR_RETURN(NfsFattr made, nfs_->Mkdir(dir, name, 0755));
    dir = made.fh;
  }
  return dir;
}

Result<wire::LockboxRecord> LockboxService::LoadLocked(uint32_t handle) {
  ASSIGN_OR_RETURN(NfsFh dir, BoxDir(/*create=*/false));
  ASSIGN_OR_RETURN(NfsFattr attr, nfs_->Lookup(dir, std::to_string(handle)));
  ASSIGN_OR_RETURN(Bytes raw,
                   nfs_->Read(attr.fh, 0, static_cast<uint32_t>(attr.size)));
  return wire::DecodeLockboxRecord(raw);
}

Status LockboxService::StoreLocked(const wire::LockboxRecord& record) {
  ASSIGN_OR_RETURN(NfsFh dir, BoxDir(/*create=*/true));
  std::string name = std::to_string(record.handle);
  // Replace = remove + create: NfsServer::Write never truncates, and a
  // shrinking record must not leave stale tail bytes behind.
  Result<NfsFattr> existing = nfs_->Lookup(dir, name);
  if (existing.ok()) {
    RETURN_IF_ERROR(nfs_->Remove(dir, name));
  } else if (existing.status().code() != StatusCode::kNotFound) {
    return existing.status();
  }
  ASSIGN_OR_RETURN(NfsFattr created, nfs_->Create(dir, name, 0600));
  return nfs_->Write(created.fh, 0, wire::EncodeLockboxRecord(record))
      .status();
}

Result<wire::LockboxRecord> LockboxService::Put(wire::LockboxRecord record,
                                                const Bytes& payload) {
  if (record.chunk_size < kMinChunkSize || record.chunk_size > kMaxChunkSize) {
    return InvalidArgumentError("lockbox chunk_size out of range");
  }
  uint64_t chunk_count =
      (payload.size() + record.chunk_size - 1) / record.chunk_size;
  if (chunk_count > wire::LockboxRecord::kMaxChunks) {
    return InvalidArgumentError("lockbox payload exceeds the chunk bound");
  }
  if (record.entries.size() > wire::LockboxRecord::kMaxEntries) {
    return InvalidArgumentError("lockbox entry list too large");
  }
  std::lock_guard<std::mutex> lock(StripeFor(record.handle));

  // Replacing an existing lockbox drops its chunk references first, so
  // payload bytes shared with the new version stay deduped (release then
  // re-put leaves the refcount unchanged) and dropped bytes get GCed.
  Result<wire::LockboxRecord> old = LoadLocked(record.handle);
  if (old.ok()) {
    for (const std::string& id : old->chunks) {
      RETURN_IF_ERROR(chunks_->Release(id));
    }
  } else if (old.status().code() != StatusCode::kNotFound) {
    return old.status();
  }

  record.chunks.clear();
  record.chunks.reserve(chunk_count);
  record.payload_size = payload.size();
  for (uint64_t i = 0; i < chunk_count; ++i) {
    size_t begin = static_cast<size_t>(i) * record.chunk_size;
    size_t end = std::min(payload.size(),
                          begin + static_cast<size_t>(record.chunk_size));
    Bytes piece(payload.begin() + begin, payload.begin() + end);
    ASSIGN_OR_RETURN(std::string id, chunks_->Put(piece));
    record.chunks.push_back(std::move(id));
  }
  RETURN_IF_ERROR(StoreLocked(record));
  return record;
}

Result<LockboxService::Box> LockboxService::Get(uint32_t handle) {
  std::lock_guard<std::mutex> lock(StripeFor(handle));
  Box box;
  ASSIGN_OR_RETURN(box.record, LoadLocked(handle));
  box.payload.reserve(box.record.payload_size);
  for (const std::string& id : box.record.chunks) {
    ASSIGN_OR_RETURN(Bytes piece, chunks_->Get(id));
    Append(box.payload, piece);
  }
  if (box.payload.size() != box.record.payload_size) {
    return DataLossError("lockbox payload size mismatch for handle " +
                         std::to_string(handle));
  }
  return box;
}

Result<wire::LockboxRecord> LockboxService::GetRecord(uint32_t handle) {
  std::lock_guard<std::mutex> lock(StripeFor(handle));
  return LoadLocked(handle);
}

Status LockboxService::Grant(uint32_t handle,
                             const wire::LockboxEntry& entry) {
  std::lock_guard<std::mutex> lock(StripeFor(handle));
  ASSIGN_OR_RETURN(wire::LockboxRecord record, LoadLocked(handle));
  int index = record.FindEntry(entry.recipient);
  if (index >= 0) {
    record.entries[index] = entry;  // re-grant replaces the wrapped key
  } else {
    if (record.entries.size() >= wire::LockboxRecord::kMaxEntries) {
      return ResourceExhaustedError("lockbox entry list full");
    }
    record.entries.push_back(entry);
  }
  return StoreLocked(record);
}

Status LockboxService::Revoke(uint32_t handle, const std::string& recipient) {
  std::lock_guard<std::mutex> lock(StripeFor(handle));
  ASSIGN_OR_RETURN(wire::LockboxRecord record, LoadLocked(handle));
  int index = record.FindEntry(recipient);
  if (index < 0) {
    return NotFoundError("no lockbox entry for that recipient");
  }
  record.entries.erase(record.entries.begin() + index);
  return StoreLocked(record);
}

Status LockboxService::Remove(uint32_t handle) {
  std::lock_guard<std::mutex> lock(StripeFor(handle));
  ASSIGN_OR_RETURN(wire::LockboxRecord record, LoadLocked(handle));
  for (const std::string& id : record.chunks) {
    RETURN_IF_ERROR(chunks_->Release(id));
  }
  ASSIGN_OR_RETURN(NfsFh dir, BoxDir(/*create=*/false));
  return nfs_->Remove(dir, std::to_string(handle));
}

}  // namespace discfs
