// Adversarial tests: what an attacker on the wire (or a malicious client)
// can and cannot do.
#include <gtest/gtest.h>

#include <deque>
#include <thread>

#include "src/crypto/groups.h"
#include "src/crypto/sha.h"
#include "src/discfs/client.h"
#include "src/discfs/action_env.h"
#include "src/discfs/credentials.h"
#include "src/discfs/host.h"
#include "src/keynote/assertion.h"
#include "src/securechannel/channel.h"
#include "src/util/hex.h"
#include "src/util/prng.h"

namespace discfs {
namespace {

std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  auto prng = std::make_shared<Prng>(seed);
  return [prng](size_t n) { return prng->NextBytes(n); };
}

// A transport wrapper that records every frame and lets the test re-inject
// or corrupt traffic — the on-path attacker.
class TamperTransport : public MsgStream {
 public:
  explicit TamperTransport(std::unique_ptr<MsgStream> inner)
      : inner_(std::move(inner)) {}

  Status Send(const Bytes& message) override {
    sent_.push_back(message);
    return forward_ ? inner_->Send(message) : OkStatus();
  }
  Result<Bytes> Recv() override { return inner_->Recv(); }
  void Close() override { inner_->Close(); }

  // While false, frames are captured but never reach the peer.
  void set_forward(bool forward) { forward_ = forward; }
  // Puts arbitrary bytes on the wire as one frame.
  Status Inject(const Bytes& frame) { return inner_->Send(frame); }
  // Replays a previously sent frame (e.g. a captured WRITE).
  Status Replay(size_t index) { return inner_->Send(sent_.at(index)); }
  // Sends a bit-flipped copy of a captured frame.
  Status SendCorrupted(size_t index) {
    Bytes frame = sent_.at(index);
    frame[frame.size() / 2] ^= 0x01;
    return inner_->Send(frame);
  }
  size_t frames() const { return sent_.size(); }
  const Bytes& frame(size_t index) const { return sent_.at(index); }

 private:
  std::unique_ptr<MsgStream> inner_;
  std::deque<Bytes> sent_;
  bool forward_ = true;
};

struct ChannelPair {
  TamperTransport* tap;         // owned by client channel
  TamperTransport* server_tap;  // owned by server channel
  std::unique_ptr<SecureChannel> client;
  std::unique_ptr<SecureChannel> server;
};

ChannelPair MakeTappedPair() {
  DsaPrivateKey server_key = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey client_key = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  auto transports = InProcTransport::CreatePair();
  auto tapped = std::make_unique<TamperTransport>(std::move(transports.a));
  TamperTransport* tap = tapped.get();
  auto server_tapped =
      std::make_unique<TamperTransport>(std::move(transports.b));
  TamperTransport* server_tap = server_tapped.get();

  ChannelIdentity client_id{client_key, TestRand(10)};
  ChannelIdentity server_id{server_key, TestRand(11)};
  Result<std::unique_ptr<SecureChannel>> server_chan =
      UnavailableError("pending");
  std::thread server_thread([&] {
    server_chan =
        SecureChannel::ServerHandshake(std::move(server_tapped), server_id);
  });
  auto client_chan = SecureChannel::ClientHandshake(std::move(tapped),
                                                    client_id, std::nullopt);
  server_thread.join();
  EXPECT_TRUE(client_chan.ok());
  EXPECT_TRUE(server_chan.ok());
  return ChannelPair{tap, server_tap, std::move(client_chan).value(),
                     std::move(server_chan).value()};
}

TEST(ChannelSecurity, ReplayedRecordRejected) {
  ChannelPair pair = MakeTappedPair();
  ASSERT_TRUE(pair.client->Send(ToBytes("WRITE $100 to account 7")).ok());
  ASSERT_TRUE(pair.server->Recv().ok());

  // The attacker re-injects the captured (already delivered) record. The
  // handshake used 3 frames; the record is the 4th sent by the client.
  size_t record_index = pair.tap->frames() - 1;
  ASSERT_TRUE(pair.tap->Replay(record_index).ok());
  auto replayed = pair.server->Recv();
  EXPECT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kUnauthenticated);
}

// Each direction has its own HKDF key; the nonce is only the sequence
// number. So a record bounced back at its own sender, whose receive window
// has not yet seen that sequence number, still fails authentication.
TEST(ChannelSecurity, ReflectedRecordRejected) {
  ChannelPair pair = MakeTappedPair();
  ASSERT_TRUE(pair.client->Send(ToBytes("WRITE $100 to account 7")).ok());
  ASSERT_TRUE(pair.server->Recv().ok());
  const Bytes& record = pair.tap->frame(pair.tap->frames() - 1);
  ASSERT_TRUE(pair.server_tap->Inject(record).ok());
  auto reflected = pair.client->Recv();
  EXPECT_EQ(reflected.status().code(), StatusCode::kUnauthenticated);
}

// The receiver parses seq | len | sealed | pad where the frame lies. Every
// malformed frame must fail with an error (and, under ASAN and UBSAN, read
// nothing out of bounds) and leave the channel able to open the genuine
// records afterwards. The pad bytes are not checked.
TEST(ChannelSecurity, HostileRecordFramesRejected) {
  ChannelPair pair = MakeTappedPair();
  Prng prng(5);
  const Bytes message = prng.NextBytes(8192);
  const Bytes odd_message = prng.NextBytes(8191);  // sealed 8207: 1 pad byte
  pair.tap->set_forward(false);  // capture both records, deliver neither
  ASSERT_TRUE(pair.client->Send(message).ok());
  ASSERT_TRUE(pair.client->Send(odd_message).ok());
  pair.tap->set_forward(true);
  const Bytes record = pair.tap->frame(pair.tap->frames() - 2);
  const Bytes odd_record = pair.tap->frame(pair.tap->frames() - 1);
  ASSERT_EQ(record.size(), 12u + 8192 + 16);
  ASSERT_EQ(odd_record.size(), 12u + 8207 + 1);

  // The genuine seq field, then `len` in place of the real length.
  auto with_len = [&](uint32_t len, bool keep_payload) {
    Bytes frame(record.begin(), record.begin() + 8);
    for (int shift = 24; shift >= 0; shift -= 8) {
      frame.push_back(static_cast<uint8_t>(len >> shift));
    }
    if (keep_payload) {
      frame.insert(frame.end(), record.begin() + 12, record.end());
    }
    return frame;
  };
  std::vector<Bytes> hostile;
  for (size_t n = 0; n < record.size(); ++n) {
    hostile.emplace_back(record.begin(), record.begin() + n);
  }
  for (uint32_t len : {0u, 15u, 16u}) {
    hostile.push_back(with_len(len, /*keep_payload=*/false));
  }
  hostile.push_back(with_len(8192 + 16 + 1, /*keep_payload=*/true));
  hostile.push_back(with_len(0xffffffffu, /*keep_payload=*/true));
  for (const Bytes& genuine : {record, odd_record}) {
    for (size_t extra : {1u, 4u}) {
      Bytes trailing = genuine;
      trailing.insert(trailing.end(), extra, 0);
      hostile.push_back(trailing);
    }
  }

  for (const Bytes& frame : hostile) {
    ASSERT_TRUE(pair.tap->Inject(frame).ok());
    Result<Bytes> got = pair.server->Recv();
    ASSERT_FALSE(got.ok()) << "accepted a frame of " << frame.size()
                           << " bytes";
  }
  ASSERT_TRUE(pair.tap->Inject(record).ok());
  Result<Bytes> got = pair.server->Recv();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, message);
  Bytes odd_padded = odd_record;
  odd_padded.back() = 0xee;  // unauthenticated pad, as XDR decoding allows
  ASSERT_TRUE(pair.tap->Inject(odd_padded).ok());
  got = pair.server->Recv();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, odd_message);
}

TEST(ChannelSecurity, CorruptedRecordRejected) {
  ChannelPair pair = MakeTappedPair();
  ASSERT_TRUE(pair.client->Send(ToBytes("sensitive payload")).ok());
  ASSERT_TRUE(pair.server->Recv().ok());
  ASSERT_TRUE(pair.client->Send(ToBytes("second payload")).ok());
  // Deliver a corrupted copy of the second record instead.
  // (The genuine one was already delivered to the inner transport, so read
  // it off first, then push the corrupted duplicate.)
  auto genuine = pair.server->Recv();
  ASSERT_TRUE(genuine.ok());
  ASSERT_TRUE(pair.tap->SendCorrupted(pair.tap->frames() - 1).ok());
  auto corrupted = pair.server->Recv();
  EXPECT_FALSE(corrupted.ok());
}

TEST(ChannelSecurity, PlaintextNeverOnWire) {
  ChannelPair pair = MakeTappedPair();
  std::string secret = "THE-LAUNCH-CODES-0000";
  ASSERT_TRUE(pair.client->Send(ToBytes(secret)).ok());
  auto got = pair.server->Recv();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), secret);  // delivered intact...
  // ...but no frame that crossed the wire contains the plaintext.
  for (size_t i = 0; i < pair.tap->frames(); ++i) {
    const Bytes& frame = pair.tap->frame(i);
    std::string as_text(frame.begin(), frame.end());
    EXPECT_EQ(as_text.find(secret), std::string::npos) << "frame " << i;
  }
}

// ----- hostile handshake input -----

// Each way a peer could mangle one handshake message: every truncation, a
// one-bit flip at every byte, each 4-byte word set to 0, to 0xFFFFFFFF and
// to its value plus and minus one, and 1 to 4 trailing bytes.
std::vector<Bytes> Mutants(const Bytes& message) {
  std::vector<Bytes> out;
  for (size_t n = 0; n < message.size(); ++n) {
    out.emplace_back(message.begin(), message.begin() + n);
  }
  for (size_t i = 0; i < message.size(); ++i) {
    out.push_back(message);
    out.back()[i] ^= static_cast<uint8_t>(1u << (i % 8));
  }
  for (size_t i = 0; i + 4 <= message.size(); i += 4) {
    uint32_t v = 0;
    for (size_t k = 0; k < 4; ++k) {
      v = (v << 8) | message[i + k];
    }
    for (uint32_t w : {0u, 0xFFFFFFFFu, v + 1, v - 1}) {
      if (w == v) {
        continue;
      }
      out.push_back(message);
      for (size_t k = 0; k < 4; ++k) {
        out.back()[i + k] = static_cast<uint8_t>(w >> (8 * (3 - k)));
      }
    }
  }
  for (size_t n = 1; n <= 4; ++n) {
    out.push_back(message);
    out.back().resize(message.size() + n, 0xA5);
  }
  return out;
}

// The ClientHello bytes the server cannot check before ClientAuth: the
// client key's y (any value decodes; only the signature proves it), the
// nonce (any 16 bytes) and XDR pad. The transcript covers all of them.
std::vector<bool> UncheckedInClientHello(const Bytes& hello) {
  std::vector<bool> unchecked(hello.size(), false);
  auto u32 = [&hello](size_t at) {
    return (uint32_t{hello[at]} << 24) | (uint32_t{hello[at + 1]} << 16) |
           (uint32_t{hello[at + 2]} << 8) | uint32_t{hello[at + 3]};
  };
  auto mark = [&unchecked](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      unchecked[i] = true;
    }
  };
  size_t at = 0;
  for (int field = 0; field < 3; ++field) {  // key, DH value, nonce
    const size_t len = u32(at);
    const size_t data = at + 4;
    if (field == 0) {
      size_t y = data;
      for (int part = 0; part < 3; ++part) {  // p, q, g
        y += 4 + u32(y);
      }
      mark(y + 4, data + len);
    } else if (field == 2) {
      mark(data, data + len);
    }
    at = data + len + (4 - len % 4) % 4;
    mark(data + len, at);
  }
  return unchecked;
}

bool ChangedOnlyWhere(const Bytes& genuine, const Bytes& mutant,
                      const std::vector<bool>& allowed) {
  if (mutant.size() != genuine.size()) {
    return false;
  }
  for (size_t i = 0; i < genuine.size(); ++i) {
    if (mutant[i] != genuine[i] && !allowed[i]) {
      return false;
    }
  }
  return true;
}

// Every mutant of each of the three messages fails the machine that takes
// it, and a failed machine refuses the genuine message that follows. The
// one exception is a ClientHello changed only where the server cannot yet
// check it: the server answers, and the genuine ClientAuth, signed over
// the real hello, then fails.
TEST(HandshakeSecurity, MutatedMessagesFailTheMachine) {
  DsaPrivateKey server_key = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey client_key = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  HandshakeMachine client = HandshakeMachine::Client(
      ChannelIdentity{client_key, TestRand(10)}, std::nullopt);
  HandshakeMachine server =
      HandshakeMachine::Server(ChannelIdentity{server_key, TestRand(11)});
  server.Start();
  const Bytes client_hello = client.Start();
  const HandshakeMachine awaiting_client_hello = server;
  const HandshakeMachine awaiting_server_hello = client;
  auto server_hello = server.OnMessage(client_hello);
  ASSERT_TRUE(server_hello.ok()) << server_hello.status();
  const HandshakeMachine awaiting_client_auth = server;
  auto client_auth = client.OnMessage(server_hello->response);
  ASSERT_TRUE(client_auth.ok()) << client_auth.status();
  ASSERT_TRUE(server.OnMessage(client_auth->response).ok());

  const std::vector<bool> unchecked = UncheckedInClientHello(client_hello);
  size_t answered = 0;
  size_t i = 0;
  for (const Bytes& mutant : Mutants(client_hello)) {
    HandshakeMachine machine = awaiting_client_hello;
    if (machine.OnMessage(mutant).ok()) {
      ++answered;
      EXPECT_TRUE(ChangedOnlyWhere(client_hello, mutant, unchecked))
          << "ClientHello mutant " << i << " was answered";
      EXPECT_FALSE(machine.OnMessage(client_auth->response).ok())
          << "ClientHello mutant " << i << " completed the handshake";
    }
    EXPECT_EQ(machine.OnMessage(client_hello).status().code(),
              StatusCode::kFailedPrecondition)
        << "ClientHello mutant " << i;
    ++i;
  }
  EXPECT_GT(answered, 0u);  // the nonce alone yields some

  i = 0;
  for (const Bytes& mutant : Mutants(server_hello->response)) {
    HandshakeMachine machine = awaiting_server_hello;
    EXPECT_FALSE(machine.OnMessage(mutant).ok()) << "ServerHello mutant " << i;
    EXPECT_EQ(machine.OnMessage(server_hello->response).status().code(),
              StatusCode::kFailedPrecondition)
        << "ServerHello mutant " << i;
    ++i;
  }

  i = 0;
  for (const Bytes& mutant : Mutants(client_auth->response)) {
    HandshakeMachine machine = awaiting_client_auth;
    EXPECT_FALSE(machine.OnMessage(mutant).ok()) << "ClientAuth mutant " << i;
    EXPECT_EQ(machine.OnMessage(client_auth->response).status().code(),
              StatusCode::kFailedPrecondition)
        << "ClientAuth mutant " << i;
    ++i;
  }
}

// SHA-256 over every frame of a fixed-seed handshake in `group` and two
// records each way: the client's frames in order, then the server's.
std::string HandshakeFramesDigest(const DsaParams& group) {
  DsaPrivateKey server_key = DsaPrivateKey::Generate(group, TestRand(1));
  DsaPrivateKey client_key = DsaPrivateKey::Generate(group, TestRand(2));
  auto transports = InProcTransport::CreatePair();
  auto client_tapped =
      std::make_unique<TamperTransport>(std::move(transports.a));
  auto server_tapped =
      std::make_unique<TamperTransport>(std::move(transports.b));
  TamperTransport* client_tap = client_tapped.get();
  TamperTransport* server_tap = server_tapped.get();
  Result<std::unique_ptr<SecureChannel>> server =
      UnavailableError("pending");
  std::thread server_thread([&] {
    server = SecureChannel::ServerHandshake(
        std::move(server_tapped), ChannelIdentity{server_key, TestRand(11)});
  });
  auto client = SecureChannel::ClientHandshake(
      std::move(client_tapped), ChannelIdentity{client_key, TestRand(10)},
      server_key.public_key());
  server_thread.join();
  if (!client.ok() || !server.ok()) {
    return "handshake failed";
  }
  for (int i = 0; i < 2; ++i) {
    std::string n = std::to_string(i);
    if (!(*client)->Send(ToBytes("request " + n)).ok() ||
        !(*server)->Recv().ok() ||
        !(*server)->Send(ToBytes("reply " + n)).ok() ||
        !(*client)->Recv().ok()) {
      return "record exchange failed";
    }
  }
  Sha256 h;
  for (TamperTransport* tap : {client_tap, server_tap}) {
    for (size_t f = 0; f < tap->frames(); ++f) {
      h.Update(tap->frame(f));
    }
  }
  return HexEncode(h.Finish());
}

// Recorded from the build before the 64-bit Montgomery kernel and the
// combs: the handshake's wire bytes, and a credential's text and id, must
// not change.
TEST(GoldenValues, HandshakeFramesAndCredentialIdsAreUnchanged) {
  EXPECT_EQ(HandshakeFramesDigest(Dsa512()),
            "61d9dceb1bebf9170e3b0dc64825cf5c82371503db7bda7077d84a4558d73891");
  EXPECT_EQ(HandshakeFramesDigest(Dsa1024()),
            "90554c6bbefc85265a28971712dbb8fdd747fecc300ac93b2b5250ae4ef4af9d");

  DsaPrivateKey issuer = DsaPrivateKey::Generate(Dsa1024(), TestRand(201));
  DsaPrivateKey subject = DsaPrivateKey::Generate(Dsa1024(), TestRand(202));
  CredentialOptions options;
  options.permissions = "RW";
  options.comment = "golden";
  auto text = IssueCredential(issuer, subject.public_key(), "666240", options);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(HexEncode(Sha256::Hash(*text)),
            "de04ac1130ca3867c5255260b4d08f47cee2cb8b7911f6003a2dd5a0b5478adc");
  auto assertion = keynote::Assertion::Parse(*text);
  ASSERT_TRUE(assertion.ok()) << assertion.status();
  EXPECT_EQ(assertion->Id(), "e77afca920af3f4b");
  EXPECT_TRUE(assertion->VerifySignature().ok());
}

// A client whose requests claim someone else's identity cannot: the key is
// bound by the handshake, not by anything inside the RPC payload.
TEST(DiscfsSecurity, IdentityComesFromChannelNotPayload) {
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey bob = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DsaPrivateKey mallory = DsaPrivateKey::Generate(Dsa512(), TestRand(3));

  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{256});
  ASSERT_TRUE(fs.ok());
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());
  ASSERT_TRUE(WriteFileAt(*vfs, "/secret.txt", "for bob only").ok());
  InodeAttr file = ResolvePath(*vfs, "/secret.txt").value();

  DiscfsServerConfig config;
  config.server_key = admin;
  config.rand_bytes = TestRand(99);
  auto host = DiscfsHost::Start(vfs, std::move(config));
  ASSERT_TRUE(host.ok());

  CredentialOptions ro;
  ro.permissions = "R";
  std::string bob_cred =
      IssueCredential(admin, bob.public_key(), HandleString(file.inode), ro)
          .value();

  // Mallory connects with HER key but submits BOB's credential.
  ChannelIdentity mallory_id{mallory, TestRand(20)};
  auto client = DiscfsClient::Connect("127.0.0.1", (*host)->port(),
                                      mallory_id, admin.public_key());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->SubmitCredential(bob_cred).ok());
  NfsFh fh{file.inode, file.generation};
  auto read = (*client)->nfs().Read(fh, 0, 100);
  EXPECT_EQ(read.status().code(), StatusCode::kPermissionDenied);
  (*client)->Close();
}

// Submitting garbage credentials must not wedge or corrupt the session.
TEST(DiscfsSecurity, MalformedCredentialFuzz) {
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey bob = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{256});
  ASSERT_TRUE(fs.ok());
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());

  DiscfsServerConfig config;
  config.server_key = admin;
  config.rand_bytes = TestRand(99);
  auto host = DiscfsHost::Start(vfs, std::move(config));
  ASSERT_TRUE(host.ok());
  ChannelIdentity bob_id{bob, TestRand(20)};
  auto client = DiscfsClient::Connect("127.0.0.1", (*host)->port(), bob_id,
                                      admin.public_key());
  ASSERT_TRUE(client.ok());

  // A valid credential, then mutations of it.
  CredentialOptions ro;
  ro.permissions = "R";
  std::string valid =
      IssueCredential(admin, bob.public_key(), "1", ro).value();

  Prng prng(7);
  for (int i = 0; i < 50; ++i) {
    std::string garbage = valid;
    // Random splice: delete a chunk, flip characters, or truncate.
    switch (prng.NextBelow(3)) {
      case 0:
        garbage.resize(prng.NextBelow(garbage.size()));
        break;
      case 1: {
        size_t pos = prng.NextBelow(garbage.size());
        garbage[pos] = static_cast<char>(prng.NextBelow(256));
        break;
      }
      case 2: {
        size_t pos = prng.NextBelow(garbage.size() / 2);
        garbage.erase(pos, prng.NextBelow(40));
        break;
      }
    }
    auto result = (*client)->SubmitCredential(garbage);
    // Either rejected, or (rare) the mutation left a valid credential —
    // but it must never crash, and the connection must stay usable:
    auto ping = (*client)->ServerInfo();
    ASSERT_TRUE(ping.ok()) << "connection wedged after fuzz input " << i;
    (void)result;
  }
  // The genuine credential still works afterwards.
  ASSERT_TRUE((*client)->SubmitCredential(valid).ok());
  (*client)->Close();
}

// EffectiveMask and telemetry plumbing.
TEST(DiscfsServerUnit, EffectiveMaskAndTelemetry) {
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey bob = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{256});
  ASSERT_TRUE(fs.ok());
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());

  DiscfsServerConfig config;
  config.server_key = admin;
  config.rand_bytes = TestRand(99);
  auto server = DiscfsServer::Create(vfs, std::move(config));
  ASSERT_TRUE(server.ok());

  std::string bob_principal = bob.public_key().ToKeyNoteString();
  EXPECT_EQ((*server)->EffectiveMask(bob_principal, 7), 0u);

  CredentialOptions rw;
  rw.permissions = "RW";
  ASSERT_TRUE((*server)
                  ->SubmitCredential(IssueCredential(admin, bob.public_key(),
                                                     "7", rw)
                                         .value())
                  .ok());
  EXPECT_EQ((*server)->EffectiveMask(bob_principal, 7), 6u);   // RW
  EXPECT_EQ((*server)->EffectiveMask(bob_principal, 8), 0u);   // other handle

  EXPECT_GT((*server)->counters().keynote_queries.load(), 0u);
  // Counters only go up; a phase is the difference of two reads. A cached
  // entry costs one more cache hit and no KeyNote query.
  const uint64_t queries = (*server)->counters().keynote_queries.load();
  const uint64_t hits = (*server)->stats_snapshot().cache.hits;
  EXPECT_EQ((*server)->EffectiveMask(bob_principal, 7), 6u);
  EXPECT_EQ((*server)->counters().keynote_queries.load(), queries);
  EXPECT_EQ((*server)->stats_snapshot().cache.hits, hits + 1);
}

// One revocation reaches a server three ways: a local call, a peer's
// coherence event, or an anti-entropy merge of a peer's revocation list.
// All three must leave the server in the same state, and only the local
// call counts its generation bumps as local.
TEST(DiscfsServerUnit, RevocationHasOneEffectWhicheverWayItArrives) {
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey k = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DsaPrivateKey alice = DsaPrivateKey::Generate(Dsa512(), TestRand(3));
  DsaPrivateKey bob = DsaPrivateKey::Generate(Dsa512(), TestRand(4));
  CredentialOptions rw;
  rw.permissions = "RW";
  // admin -> K -> Alice, and admin -> Bob, all on handle 7.
  const std::vector<std::string> graph = {
      IssueCredential(admin, k.public_key(), "7", rw).value(),
      IssueCredential(k, alice.public_key(), "7", rw).value(),
      IssueCredential(admin, bob.public_key(), "7", rw).value()};
  const std::string k_principal = k.public_key().ToKeyNoteString();
  const std::string alice_principal = alice.public_key().ToKeyNoteString();
  const std::string bob_principal = bob.public_key().ToKeyNoteString();

  for (bool revoke_key : {true, false}) {
    SCOPED_TRACE(revoke_key ? "RevokeKey(K)" : "RemoveCredential(K->Alice)");
    FakeClock clock(1'000'000'000);
    // [0] local call, [1] ApplyRemoteEvent, [2] MergeRevocations.
    std::vector<std::unique_ptr<DiscfsServer>> servers;
    std::string alice_cred_id;
    for (int i = 0; i < 3; ++i) {
      auto dev = std::make_shared<MemBlockDevice>(4096, 1024);
      auto fs = Ffs::Format(dev, FfsFormatOptions{64});
      ASSERT_TRUE(fs.ok());
      DiscfsServerConfig config;
      config.server_key = admin;
      config.rand_bytes = TestRand(99);
      config.clock = &clock;
      auto server = DiscfsServer::Create(
          std::make_shared<FfsVfs>(std::move(fs).value()), std::move(config));
      ASSERT_TRUE(server.ok());
      for (const std::string& credential : graph) {
        auto id = (*server)->SubmitCredential(credential);
        ASSERT_TRUE(id.ok()) << id.status();
        if (credential == graph[1]) {
          alice_cred_id = *id;
        }
      }
      // Both grants are warm before the revocation.
      EXPECT_EQ((*server)->EffectiveMask(alice_principal, 7), 6u);
      EXPECT_EQ((*server)->EffectiveMask(bob_principal, 7), 6u);
      servers.push_back(std::move(server).value());
    }
    std::vector<PolicyCache::CoherenceStats> bumps_before;
    for (const auto& server : servers) {
      bumps_before.push_back(server->stats_snapshot().coherence);
    }

    cluster::CoherenceEvent event;
    if (revoke_key) {
      servers[0]->RevokeKey(k_principal);
      event.type = cluster::CoherenceEvent::Type::kRevokeKey;
      event.principal = k_principal;
    } else {
      ASSERT_TRUE(servers[0]->RemoveCredential(alice_cred_id).ok());
      event.type = cluster::CoherenceEvent::Type::kRemove;
      event.credential_id = alice_cred_id;
    }
    clock.Advance(30);  // the others learn of it later (within the TTL)
    servers[1]->ApplyRemoteEvent(event);
    EXPECT_GT(servers[2]->MergeRevocations(servers[0]->SerializeRevocations()),
              0u);
    // The merge keeps the peer's timestamps: nothing re-stamps the entries
    // it just added.
    EXPECT_EQ(servers[2]->SerializeRevocations(),
              servers[0]->SerializeRevocations());

    for (size_t i = 0; i < servers.size(); ++i) {
      SCOPED_TRACE("server " + std::to_string(i));
      DiscfsServer& server = *servers[i];
      EXPECT_EQ(server.credential_count(), 2u);  // admin->K, admin->Bob
      EXPECT_EQ(server.RevocationDigest(), servers[0]->RevocationDigest());
      // Bob's chain does not pass through the revocation: his warm entry
      // is served without a new KeyNote query.
      const uint64_t queries = server.counters().keynote_queries.load();
      EXPECT_EQ(server.EffectiveMask(bob_principal, 7), 6u);
      EXPECT_EQ(server.counters().keynote_queries.load(), queries);
      EXPECT_EQ(server.EffectiveMask(alice_principal, 7), 0u);
      EXPECT_EQ(server.EffectiveMask(k_principal, 7),
                servers[0]->EffectiveMask(k_principal, 7));
      PolicyCache::CoherenceStats bumps = server.stats_snapshot().coherence;
      const uint64_t local = bumps.local_bumps - bumps_before[i].local_bumps;
      const uint64_t remote =
          bumps.remote_bumps - bumps_before[i].remote_bumps;
      if (i == 0) {
        EXPECT_GT(local, 0u);
        EXPECT_EQ(remote, 0u);
      } else {
        EXPECT_EQ(local, 0u);
        EXPECT_GT(remote, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace discfs
