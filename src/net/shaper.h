// Link shaping: models the paper's testbed network (100 Mbps Ethernet
// between Alice and Bob) on top of any MsgStream. Localhost TCP is orders
// of magnitude faster than the 2001 testbed, which would make per-record
// crypto look artificially expensive relative to the wire; pacing frames at
// the era's line rate restores the paper's operating point. Disabled (rate
// 0) the wrapper is a pass-through.
#ifndef DISCFS_SRC_NET_SHAPER_H_
#define DISCFS_SRC_NET_SHAPER_H_

#include <memory>

#include "src/net/transport.h"

namespace discfs {

struct LinkModel {
  double mbps = 0;             // 0 = unshaped
  uint64_t latency_us = 0;     // fixed per-frame latency (propagation/switch)
};

class ShapedStream : public MsgStream {
 public:
  ShapedStream(std::unique_ptr<MsgStream> inner, LinkModel model)
      : inner_(std::move(inner)), model_(model) {}

  Status Send(const Bytes& message) override;
  Result<Bytes> Recv() override;
  void Close() override { inner_->Close(); }
  // Forwarded, not the Close default: RpcClient::Close shuts the stream
  // down while its demux thread may still be in the inner Recv, which must
  // not race a close(2) and fd reuse.
  void Shutdown() override { inner_->Shutdown(); }

 private:
  void Delay(size_t bytes) const;

  std::unique_ptr<MsgStream> inner_;
  LinkModel model_;
};

// Reads DISCFS_LINK_MBPS / DISCFS_LINK_LATENCY_US; defaults to the paper's
// 100 Mbps with 100 us frame latency when unset.
LinkModel LinkModelFromEnv();

// Wraps only when the model is active.
std::unique_ptr<MsgStream> MaybeShape(std::unique_ptr<MsgStream> inner,
                                      const LinkModel& model);

}  // namespace discfs

#endif  // DISCFS_SRC_NET_SHAPER_H_
