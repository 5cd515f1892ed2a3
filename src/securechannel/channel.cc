#include "src/securechannel/channel.h"

#include <cstring>

#include "src/crypto/dh.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha.h"
#include "src/wire/xdr.h"

namespace discfs {
namespace {

constexpr size_t kNonceLen = 16;
constexpr char kKdfInfoClient[] = "discfs-channel-v1 client->server";
constexpr char kKdfInfoServer[] = "discfs-channel-v1 server->client";

// A record is the XDR encoding of { u64 seq; opaque sealed<>; }:
//   seq (8, big-endian) | len (4, big-endian) | sealed | zero pad to 4
// where sealed = ciphertext || tag and the 8 seq bytes are also the AAD.
constexpr size_t kSeqLen = 8;
constexpr size_t kRecordHeader = kSeqLen + 4;
constexpr size_t kMaxSealed = 1 << 26;  // XdrReader::GetOpaque's default cap

size_t PadTo4(size_t n) { return (4 - n % 4) % 4; }

void StoreBE(uint8_t* p, uint64_t v, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * (width - 1 - i)));
  }
}

// Zero || le64(seq). Directions are kept apart by their two HKDF keys,
// not by the nonce.
void BuildNonce(uint64_t seq, uint8_t nonce[Aead::kNonceSize]) {
  std::memset(nonce, 0, 4);
  for (int i = 0; i < 8; ++i) {
    nonce[4 + i] = static_cast<uint8_t>(seq >> (8 * i));
  }
}

struct Hello {
  Bytes identity_key;  // serialized DsaPublicKey
  Bytes dh_public;
  Bytes nonce;
};

Bytes EncodeHello(const Hello& h) {
  XdrWriter w;
  w.PutOpaque(h.identity_key);
  w.PutOpaque(h.dh_public);
  w.PutOpaque(h.nonce);
  return w.Take();
}

Result<Hello> DecodeHello(const Bytes& data) {
  XdrReader r(data);
  Hello h;
  ASSIGN_OR_RETURN(h.identity_key, r.GetOpaque());
  ASSIGN_OR_RETURN(h.dh_public, r.GetOpaque());
  ASSIGN_OR_RETURN(h.nonce, r.GetOpaque());
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes in hello");
  }
  if (h.nonce.size() != kNonceLen) {
    return InvalidArgumentError("bad hello nonce length");
  }
  return h;
}

Bytes SignTranscript(const DsaPrivateKey& key, const Bytes& transcript) {
  DsaSignature sig = key.Sign(Sha256::Hash(transcript));
  return SerializeDsaSignature(sig, key.public_key().params());
}

Status VerifyTranscript(const DsaPublicKey& key, const Bytes& transcript,
                        const Bytes& sig_bytes) {
  ASSIGN_OR_RETURN(DsaSignature sig,
                   DeserializeDsaSignature(sig_bytes, key.params()));
  if (!key.Verify(Sha256::Hash(transcript), sig)) {
    return UnauthenticatedError("handshake signature verification failed");
  }
  return OkStatus();
}

struct TrafficKeys {
  Bytes client_to_server;
  Bytes server_to_client;
};

TrafficKeys DeriveKeys(const Bytes& dh_secret, const Bytes& nonce_c,
                       const Bytes& nonce_s) {
  Bytes salt = nonce_c;
  Append(salt, nonce_s);
  Bytes prk = HkdfExtract(salt, dh_secret);
  TrafficKeys keys;
  keys.client_to_server =
      HkdfExpand(prk, ToBytes(kKdfInfoClient), Aead::kKeySize);
  keys.server_to_client =
      HkdfExpand(prk, ToBytes(kKdfInfoServer), Aead::kKeySize);
  return keys;
}

}  // namespace

SecureChannel::SecureChannel(std::unique_ptr<MsgStream> transport,
                             Bytes send_key, Bytes recv_key,
                             DsaPublicKey peer_key)
    : transport_(std::move(transport)),
      send_aead_(std::move(send_key)),
      recv_aead_(std::move(recv_key)),
      peer_key_(std::move(peer_key)) {}

Result<std::unique_ptr<SecureChannel>> SecureChannel::ClientHandshake(
    std::unique_ptr<MsgStream> transport, const ChannelIdentity& identity,
    const std::optional<DsaPublicKey>& expected_server) {
  const DsaParams& group = identity.key.public_key().params();
  DhKeyPair dh = DhKeyPair::Generate(group, identity.rand_bytes);

  Hello client_hello{identity.key.public_key().Serialize(), dh.PublicValue(),
                     identity.rand_bytes(kNonceLen)};
  Bytes client_hello_bytes = EncodeHello(client_hello);
  RETURN_IF_ERROR(transport->Send(client_hello_bytes));

  ASSIGN_OR_RETURN(Bytes server_msg, transport->Recv());
  // ServerHello = hello-body || signature (XDR opaques).
  XdrReader r(server_msg);
  ASSIGN_OR_RETURN(Bytes server_hello_bytes, r.GetOpaque());
  ASSIGN_OR_RETURN(Bytes server_sig, r.GetOpaque());
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes in server hello");
  }
  ASSIGN_OR_RETURN(Hello server_hello, DecodeHello(server_hello_bytes));
  ASSIGN_OR_RETURN(DsaPublicKey server_key,
                   DsaPublicKey::Deserialize(server_hello.identity_key));
  if (expected_server.has_value() && !(server_key == *expected_server)) {
    return UnauthenticatedError("server key does not match expected key");
  }

  Bytes transcript1 = client_hello_bytes;
  Append(transcript1, server_hello_bytes);
  RETURN_IF_ERROR(VerifyTranscript(server_key, transcript1, server_sig));

  ASSIGN_OR_RETURN(Bytes secret, dh.SharedSecret(server_hello.dh_public));
  TrafficKeys keys =
      DeriveKeys(secret, client_hello.nonce, server_hello.nonce);

  Bytes transcript2 = transcript1;
  Append(transcript2, server_sig);
  XdrWriter auth;
  auth.PutOpaque(SignTranscript(identity.key, transcript2));
  RETURN_IF_ERROR(transport->Send(auth.Take()));

  return std::unique_ptr<SecureChannel>(new SecureChannel(
      std::move(transport), std::move(keys.client_to_server),
      std::move(keys.server_to_client), std::move(server_key)));
}

Result<std::unique_ptr<SecureChannel>> SecureChannel::ServerHandshake(
    std::unique_ptr<MsgStream> transport, const ChannelIdentity& identity) {
  // The blocking entry point is the sans-io machine plus a trivial driver;
  // there is exactly one handshake implementation.
  ServerHandshakeMachine machine(identity);
  while (!machine.done()) {
    ASSIGN_OR_RETURN(Bytes message, transport->Recv());
    ASSIGN_OR_RETURN(ServerHandshakeMachine::Step step,
                     machine.OnMessage(message));
    if (!step.response.empty()) {
      RETURN_IF_ERROR(transport->Send(step.response));
    }
  }
  return machine.Finish(std::move(transport));
}

ServerHandshakeMachine::ServerHandshakeMachine(const ChannelIdentity& identity)
    : identity_(identity) {}

Result<ServerHandshakeMachine::Step> ServerHandshakeMachine::OnMessage(
    const Bytes& message) {
  switch (state_) {
    case State::kAwaitClientHello: {
      state_ = State::kFailed;  // restored on success below
      ASSIGN_OR_RETURN(Hello client_hello, DecodeHello(message));
      ASSIGN_OR_RETURN(DsaPublicKey client_key,
                       DsaPublicKey::Deserialize(client_hello.identity_key));
      const DsaParams& group = identity_.key.public_key().params();
      if (!(client_key.params() == group)) {
        return InvalidArgumentError("client uses a different DH group");
      }
      DhKeyPair dh = DhKeyPair::Generate(group, identity_.rand_bytes);

      Hello server_hello{identity_.key.public_key().Serialize(),
                         dh.PublicValue(), identity_.rand_bytes(kNonceLen)};
      Bytes server_hello_bytes = EncodeHello(server_hello);

      transcript1_ = message;
      Append(transcript1_, server_hello_bytes);
      server_sig_ = SignTranscript(identity_.key, transcript1_);

      ASSIGN_OR_RETURN(Bytes secret, dh.SharedSecret(client_hello.dh_public));
      TrafficKeys keys =
          DeriveKeys(secret, client_hello.nonce, server_hello.nonce);
      send_key_ = std::move(keys.server_to_client);
      recv_key_ = std::move(keys.client_to_server);
      client_key_ = std::move(client_key);

      XdrWriter w;
      w.PutOpaque(server_hello_bytes);
      w.PutOpaque(server_sig_);
      state_ = State::kAwaitClientAuth;
      Step step;
      step.response = w.Take();
      return step;
    }
    case State::kAwaitClientAuth: {
      state_ = State::kFailed;
      XdrReader r(message);
      ASSIGN_OR_RETURN(Bytes client_sig, r.GetOpaque());
      if (!r.AtEnd()) {
        return DataLossError("trailing bytes in client auth");
      }
      Bytes transcript2 = transcript1_;
      Append(transcript2, server_sig_);
      RETURN_IF_ERROR(VerifyTranscript(*client_key_, transcript2, client_sig));
      state_ = State::kDone;
      Step step;
      step.done = true;
      return step;
    }
    case State::kDone:
      return FailedPreconditionError("handshake already complete");
    case State::kFailed:
      return FailedPreconditionError("handshake already failed");
  }
  return InternalError("bad handshake state");
}

Result<std::unique_ptr<SecureChannel>> ServerHandshakeMachine::Finish(
    std::unique_ptr<MsgStream> transport) {
  if (state_ != State::kDone) {
    return FailedPreconditionError("handshake not complete");
  }
  state_ = State::kFailed;  // keys are consumed; the machine is spent
  return std::unique_ptr<SecureChannel>(
      new SecureChannel(std::move(transport), std::move(send_key_),
                        std::move(recv_key_), std::move(*client_key_)));
}

Bytes SecureChannel::SealRecord(const Bytes& message) {
  ++send_seq_;
  uint8_t nonce[Aead::kNonceSize];
  BuildNonce(send_seq_, nonce);
  const size_t sealed_len = message.size() + Aead::kTagSize;
  Bytes frame(kRecordHeader + sealed_len + PadTo4(sealed_len));
  StoreBE(frame.data(), send_seq_, kSeqLen);
  StoreBE(frame.data() + kSeqLen, sealed_len, 4);
  send_aead_.Seal(nonce, /*aad=*/frame.data(), kSeqLen, message.data(),
                  message.size(), frame.data() + kRecordHeader);
  return frame;
}

Status SecureChannel::Send(const Bytes& message) {
  // Seal and write under one lock so sequence numbers reach the wire in
  // order; the receiver's replay window then only ever advances.
  std::lock_guard<std::mutex> lock(send_mu_);
  return transport_->Send(SealRecord(message));
}

Result<bool> SecureChannel::SendNonBlocking(const Bytes& message) {
  std::lock_guard<std::mutex> lock(send_mu_);
  return transport_->SendNonBlocking(SealRecord(message));
}

Result<bool> SecureChannel::FlushSend() {
  std::lock_guard<std::mutex> lock(send_mu_);
  return transport_->FlushSend();
}

Result<Bytes> SecureChannel::OpenRecord(const Bytes& frame) {
  // The opaque is opened where it lies, under XdrReader::GetOpaque's cap
  // and exact-length rule; as there, the pad bytes are unchecked.
  XdrReader r(frame);
  ASSIGN_OR_RETURN(uint64_t seq, r.GetU64());
  ASSIGN_OR_RETURN(uint32_t sealed_len, r.GetU32());
  if (sealed_len > kMaxSealed) {
    return DataLossError("record exceeds limit");
  }
  if (r.remaining() != sealed_len + PadTo4(sealed_len)) {
    return DataLossError("record length does not match its frame");
  }
  uint8_t nonce[Aead::kNonceSize];
  BuildNonce(seq, nonce);
  Bytes plain(sealed_len < Aead::kTagSize ? 0 : sealed_len - Aead::kTagSize);
  RETURN_IF_ERROR(recv_aead_.Open(nonce, /*aad=*/frame.data(), kSeqLen,
                                  frame.data() + kRecordHeader, sealed_len,
                                  plain.data()));
  // Replay check happens after authentication so an attacker cannot poison
  // the window with forged sequence numbers.
  if (!recv_window_.CheckAndUpdate(seq)) {
    return UnauthenticatedError("replayed or stale record");
  }
  return plain;
}

Result<Bytes> SecureChannel::Recv() {
  std::unique_lock<std::mutex> lock(recv_mu_);
  ASSIGN_OR_RETURN(Bytes frame, transport_->Recv());
  return OpenRecord(frame);
}

Result<std::optional<Bytes>> SecureChannel::TryRecv() {
  std::unique_lock<std::mutex> lock(recv_mu_);
  ASSIGN_OR_RETURN(std::optional<Bytes> frame, transport_->TryRecv());
  if (!frame.has_value()) {
    return std::optional<Bytes>();
  }
  ASSIGN_OR_RETURN(Bytes plain, OpenRecord(*frame));
  return std::optional<Bytes>(std::move(plain));
}

void SecureChannel::Close() { transport_->Close(); }

void SecureChannel::Shutdown() { transport_->Shutdown(); }

}  // namespace discfs
