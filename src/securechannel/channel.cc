#include "src/securechannel/channel.h"

#include <cstring>
#include <utility>

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
  HandshakeMachine machine =
      HandshakeMachine::Client(identity, expected_server);
  RETURN_IF_ERROR(machine.Run(*transport));
  return machine.Finish(std::move(transport));
}

Result<std::unique_ptr<SecureChannel>> SecureChannel::ServerHandshake(
    std::unique_ptr<MsgStream> transport, const ChannelIdentity& identity) {
  HandshakeMachine machine = HandshakeMachine::Server(identity);
  RETURN_IF_ERROR(machine.Run(*transport));
  return machine.Finish(std::move(transport));
}

HandshakeMachine HandshakeMachine::Client(
    const ChannelIdentity& identity,
    std::optional<DsaPublicKey> expected_server) {
  return HandshakeMachine(identity, /*client=*/true,
                          std::move(expected_server));
}

HandshakeMachine HandshakeMachine::Server(const ChannelIdentity& identity) {
  return HandshakeMachine(identity, /*client=*/false, std::nullopt);
}

Bytes HandshakeMachine::Start() {
  if (state_ != State::kNew) {
    return {};
  }
  state_ = State::kAwaitHello;
  return client_ ? OwnHello() : Bytes();
}

Result<HandshakeMachine::Step> HandshakeMachine::OnMessage(
    const Bytes& message) {
  const State state = state_;
  if (state != State::kAwaitHello && state != State::kAwaitAuth) {
    return FailedPreconditionError(done() ? "handshake already complete"
                                          : "handshake not in progress");
  }
  state_ = State::kFailed;  // restored on success below
  Step step;
  XdrReader r(message);
  if (state == State::kAwaitAuth) {
    // The server, on ClientAuth = { SIG_client(transcript_2) }.
    ASSIGN_OR_RETURN(Bytes signature, r.GetOpaque());
    if (!r.AtEnd()) {
      return DataLossError("trailing bytes in client auth");
    }
    RETURN_IF_ERROR(VerifyTranscript(signature));
  } else if (client_) {
    // The client, on ServerHello = hello-body || signature (XDR opaques).
    ASSIGN_OR_RETURN(Bytes hello, r.GetOpaque());
    ASSIGN_OR_RETURN(Bytes signature, r.GetOpaque());
    if (!r.AtEnd()) {
      return DataLossError("trailing bytes in server hello");
    }
    ASSIGN_OR_RETURN(Bytes peer_dh, TakePeerHello(hello));
    RETURN_IF_ERROR(VerifyTranscript(signature));
    RETURN_IF_ERROR(DeriveKeys(peer_dh));
    XdrWriter auth;
    auth.PutOpaque(SignTranscript());
    step.response = auth.Take();
  } else {
    // The server, on ClientHello.
    ASSIGN_OR_RETURN(Bytes peer_dh, TakePeerHello(message));
    Bytes hello = OwnHello();
    Bytes signature = SignTranscript();
    RETURN_IF_ERROR(DeriveKeys(peer_dh));
    XdrWriter w;
    w.PutOpaque(hello);
    w.PutOpaque(signature);
    step.response = w.Take();
    state_ = State::kAwaitAuth;
    return step;
  }
  state_ = State::kDone;
  step.done = true;
  return step;
}

Status HandshakeMachine::Run(MsgStream& transport) {
  Bytes out = Start();
  while (true) {
    if (!out.empty()) {
      RETURN_IF_ERROR(transport.Send(out));
    }
    if (done()) {
      return OkStatus();
    }
    ASSIGN_OR_RETURN(Bytes message, transport.Recv());
    ASSIGN_OR_RETURN(Step step, OnMessage(message));
    out = std::move(step.response);
  }
}

Result<std::unique_ptr<SecureChannel>> HandshakeMachine::Finish(
    std::unique_ptr<MsgStream> transport) {
  if (state_ != State::kDone) {
    return FailedPreconditionError("handshake not complete");
  }
  state_ = State::kFailed;  // keys are consumed; the machine is spent
  return std::unique_ptr<SecureChannel>(
      new SecureChannel(std::move(transport), std::move(send_key_),
                        std::move(recv_key_), std::move(*peer_key_)));
}

// { identity_key, dh, nonce }: draws this side's DH value, then its nonce.
Bytes HandshakeMachine::OwnHello() {
  const DsaPublicKey& key = identity_.key.public_key();
  dh_ = DhKeyPair::Generate(key.params(), identity_.rand_bytes);
  Bytes nonce = identity_.rand_bytes(kNonceLen);
  Append(salt_, nonce);
  XdrWriter w;
  w.PutOpaque(key.Serialize());
  w.PutOpaque(dh_->PublicValue());
  w.PutOpaque(nonce);
  Bytes hello = w.Take();
  Append(transcript_, hello);
  return hello;
}

// Both roles check the peer's hello alike: its encoding, the nonce
// length, the key, and that the key is in our DH group; then the client
// checks the key it pinned, if any.
Result<Bytes> HandshakeMachine::TakePeerHello(const Bytes& hello) {
  XdrReader r(hello);
  ASSIGN_OR_RETURN(Bytes key_bytes, r.GetOpaque());
  ASSIGN_OR_RETURN(Bytes peer_dh, r.GetOpaque());
  ASSIGN_OR_RETURN(Bytes nonce, r.GetOpaque());
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes in hello");
  }
  if (nonce.size() != kNonceLen) {
    return InvalidArgumentError("bad hello nonce length");
  }
  ASSIGN_OR_RETURN(DsaPublicKey key, DsaPublicKey::Deserialize(key_bytes));
  if (!(key.params() == identity_.key.public_key().params())) {
    return InvalidArgumentError("peer uses a different DH group");
  }
  if (expected_server_.has_value() && !(key == *expected_server_)) {
    return UnauthenticatedError("server key does not match expected key");
  }
  peer_key_ = std::move(key);
  Append(salt_, nonce);
  Append(transcript_, hello);
  return peer_dh;
}

Bytes HandshakeMachine::SignTranscript() {
  const DsaPrivateKey& key = identity_.key;
  Bytes signature = SerializeDsaSignature(key.Sign(Sha256::Hash(transcript_)),
                                          key.public_key().params());
  Append(transcript_, signature);
  return signature;
}

Status HandshakeMachine::VerifyTranscript(const Bytes& signature) {
  ASSIGN_OR_RETURN(DsaSignature sig,
                   DeserializeDsaSignature(signature, peer_key_->params()));
  if (!peer_key_->Verify(Sha256::Hash(transcript_), sig)) {
    return UnauthenticatedError("handshake signature verification failed");
  }
  Append(transcript_, signature);
  return OkStatus();
}

// HKDF(salt = nonce_c || nonce_s, ikm = DH secret), one key per direction.
Status HandshakeMachine::DeriveKeys(const Bytes& peer_dh) {
  ASSIGN_OR_RETURN(Bytes secret, dh_->SharedSecret(peer_dh));
  Bytes prk = HkdfExtract(salt_, secret);
  send_key_ = HkdfExpand(prk, ToBytes(kKdfInfoClient), Aead::kKeySize);
  recv_key_ = HkdfExpand(prk, ToBytes(kKdfInfoServer), Aead::kKeySize);
  if (!client_) {
    std::swap(send_key_, recv_key_);
  }
  return OkStatus();
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
