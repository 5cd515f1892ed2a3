// SecureChannel — the repository's stand-in for the paper's IPsec tunnel.
//
// The paper (§4.3, §5) uses IPsec/IKE for exactly two properties:
//   (a) NFS traffic between client and server is confidential and
//       integrity-protected;
//   (b) the DisCFS server learns the client's *public key* during IKE key
//       establishment and associates every subsequent NFS request with it.
//
// This module provides both with a signed ephemeral Diffie-Hellman handshake
// (the IKE stand-in) and a ChaCha20-Poly1305 record layer with ESP-style
// sequence numbers and an anti-replay window (the ESP stand-in).
//
// Handshake (3 messages over an established transport):
//   C -> S : ClientHello  { client_identity_key, dh_c, nonce_c }
//   S -> C : ServerHello  { server_identity_key, dh_s, nonce_s,
//                           SIG_server(transcript_1) }
//   C -> S : ClientAuth   { SIG_client(transcript_2) }
// where transcript_1 = ClientHello || ServerHello-body and transcript_2 =
// transcript_1 || ServerHello-signature. Traffic keys come from
// HKDF(salt = nonce_c || nonce_s, ikm = DH secret). Each direction has its
// own key, which is what keeps the directions apart; a record's nonce is
// its monotone sequence number alone, also authenticated as AAD.
//
// One sans-io HandshakeMachine implements both roles; the blocking
// handshakes below, the coherence fabric's peer links and the host's
// HandshakeReactor all drive it.
#ifndef DISCFS_SRC_SECURECHANNEL_CHANNEL_H_
#define DISCFS_SRC_SECURECHANNEL_CHANNEL_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "src/crypto/aead.h"
#include "src/crypto/dh.h"
#include "src/crypto/dsa.h"
#include "src/net/transport.h"
#include "src/securechannel/replay_window.h"
#include "src/util/status.h"

namespace discfs {

struct ChannelIdentity {
  DsaPrivateKey key;
  std::function<Bytes(size_t)> rand_bytes;
};

class SecureChannel : public MsgStream {
 public:
  // Blocking handshakes: HandshakeMachine::Client or ::Server (see there
  // for what each side checks), Run over `transport`, then Finish.
  static Result<std::unique_ptr<SecureChannel>> ClientHandshake(
      std::unique_ptr<MsgStream> transport, const ChannelIdentity& identity,
      const std::optional<DsaPublicKey>& expected_server);
  static Result<std::unique_ptr<SecureChannel>> ServerHandshake(
      std::unique_ptr<MsgStream> transport, const ChannelIdentity& identity);

  // MsgStream: AEAD-sealed records over the inner transport. Send and Recv
  // each serialize internally but never against each other: the send state
  // (sequence counter) and receive state (replay window) are disjoint and
  // carry their own locks, so the RPC demux loop can sit in Recv while
  // worker threads stream replies through Send.
  Status Send(const Bytes& message) override;
  Result<Bytes> Recv() override;
  void Close() override;
  void Shutdown() override;

  // Non-blocking face for event-loop serving: readiness comes from the
  // inner transport's fd; TryRecv opens a record only when a whole sealed
  // frame is already available, and SendNonBlocking seals under the send
  // lock (sequence order preserved) before handing the wire bytes to the
  // transport's buffered non-blocking sender.
  int PollFd() const override { return transport_->PollFd(); }
  Result<std::optional<Bytes>> TryRecv() override;
  Result<bool> SendNonBlocking(const Bytes& message) override;
  Result<bool> FlushSend() override;

  // The authenticated identity of the other endpoint. For the server this
  // is the client key that DisCFS binds NFS requests to.
  const DsaPublicKey& peer_key() const { return peer_key_; }

 private:
  friend class HandshakeMachine;

  SecureChannel(std::unique_ptr<MsgStream> transport, Bytes send_key,
                Bytes recv_key, DsaPublicKey peer_key);

  // Authenticates + replay-checks one wire record where it lies and
  // decrypts it into the returned buffer (recv_mu_ held).
  Result<Bytes> OpenRecord(const Bytes& frame);
  // Sizes a wire record once and seals `message` into it (send_mu_ held).
  Bytes SealRecord(const Bytes& message);

  std::unique_ptr<MsgStream> transport_;
  Aead send_aead_;
  Aead recv_aead_;
  DsaPublicKey peer_key_;
  // Send direction: sequence allocation and the transport write happen
  // under send_mu_ so records hit the wire in sequence order.
  std::mutex send_mu_;
  uint64_t send_seq_ = 0;  // guarded by send_mu_
  // Receive direction: the blocking transport read and the replay-window
  // update happen under recv_mu_ (never held by a sender).
  std::mutex recv_mu_;
  ReplayWindow recv_window_;  // guarded by recv_mu_
};

// The 3-message handshake for either role, sans-io: the machine does no
// I/O, so a blocking driver (Run) and an event loop interleaving hundreds
// of half-open handshakes run the same code. Send Start()'s message, if
// any; feed each peer message to OnMessage and send back its response;
// once done(), Finish binds the derived keys to a transport.
class HandshakeMachine {
 public:
  // Cap on one handshake message; the largest genuine one, a 1024-bit
  // ServerHello, is 624 bytes.
  static constexpr size_t kMaxMessage = 16 * 1024;

  // Both roles refuse a peer key outside their own DH group. The client
  // also refuses any server key but `expected_server`, when set (the
  // SFS-style "self-certifying" check, typically from the mount/attach
  // specification); the server accepts any client key (DisCFS authorizes
  // by credentials, not identity lists) and binds the channel to it.
  static HandshakeMachine Client(const ChannelIdentity& identity,
                                 std::optional<DsaPublicKey> expected_server);
  static HandshakeMachine Server(const ChannelIdentity& identity);

  // The opening message: the ClientHello, or empty for the server. Call
  // once, before OnMessage.
  Bytes Start();

  struct Step {
    Bytes response;     // when non-empty, send to the peer
    bool done = false;  // when true, call Finish
  };
  // Advances the handshake with one peer message. CPU-heavy (DH exchange
  // plus a DSA sign or verify) — run on a worker, not the poller thread.
  // Any error is terminal; a failed or done machine refuses further
  // messages with FAILED_PRECONDITION.
  Result<Step> OnMessage(const Bytes& message);
  bool done() const { return state_ == State::kDone; }

  // Start, then Recv/OnMessage/Send until done. The transport stays the
  // caller's, so another thread may Shutdown it meanwhile.
  Status Run(MsgStream& transport);

  // Binds the traffic keys to `transport`. Valid exactly once, after
  // done(); the machine is consumed.
  Result<std::unique_ptr<SecureChannel>> Finish(
      std::unique_ptr<MsgStream> transport);

 private:
  enum class State { kNew, kAwaitHello, kAwaitAuth, kDone, kFailed };

  HandshakeMachine(const ChannelIdentity& identity, bool client,
                   std::optional<DsaPublicKey> expected_server)
      : identity_(identity),
        client_(client),
        expected_server_(std::move(expected_server)) {}

  Bytes OwnHello();
  // Checks the peer's hello and returns its DH value.
  Result<Bytes> TakePeerHello(const Bytes& hello);
  Bytes SignTranscript();
  Status VerifyTranscript(const Bytes& signature);
  Status DeriveKeys(const Bytes& peer_dh);

  ChannelIdentity identity_;
  bool client_;
  std::optional<DsaPublicKey> expected_server_;
  State state_ = State::kNew;
  // Every hello and signature so far, in wire order; each signature
  // covers all that precedes it.
  Bytes transcript_;
  Bytes salt_;  // nonce_c || nonce_s, gathered in wire order
  std::optional<DhKeyPair> dh_;
  std::optional<DsaPublicKey> peer_key_;
  Bytes send_key_;
  Bytes recv_key_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_SECURECHANNEL_CHANNEL_H_
