// Seed-based membership and peer liveness for the coherence fabric
// (PR 6). Nodes are configured with any subset of the fleet ("seeds");
// every Hello and kClusterStatus heartbeat carries the sender's advertised
// listen address plus its current member view, and receivers add senders
// for any address they have not seen — so a node that joins by contacting
// one seed is learned by everyone within a heartbeat round, with no
// reconfiguration.
//
// Membership spreads *addresses* only. Authorization never widens: a
// learned peer still has to present a channel key in the receiver's
// static cluster trust set before any of its pushes are honored, and
// outbound links to learned addresses rely on that same receiver-side
// check (addresses are routing hints, not identity).
//
// Liveness: each PeerSender stamps the time of its last successful RPC
// (Hello, Push, Status, or RevocationSync — the heartbeat fires whenever
// the link has been idle); a peer is healthy when its link is connected
// and that stamp is within the configured heartbeat deadline.
#ifndef DISCFS_SRC_CLUSTER_MEMBERSHIP_H_
#define DISCFS_SRC_CLUSTER_MEMBERSHIP_H_

#include <cstdint>
#include <string>
#include <vector>

namespace discfs::cluster {

// One outbound link's state; FabricStats::peers holds one per peer.
struct PeerHealth {
  std::string address;  // "host:port"
  bool connected = false;
  // Connected and heard from within the heartbeat deadline.
  bool healthy = false;
  int64_t millis_since_contact = -1;  // -1 = never heard from
  uint64_t acked_seq = 0;             // receiver-confirmed cursor
  uint64_t connects = 0;              // successful (re)connections
  uint64_t connect_failures = 0;
  uint64_t full_invalidations_sent = 0;
};

// Splits "host:port"; false on a malformed address or port.
bool ParseHostPort(const std::string& address, std::string* host,
                   uint16_t* port);

}  // namespace discfs::cluster

#endif  // DISCFS_SRC_CLUSTER_MEMBERSHIP_H_
