#pragma once
// The one byte exchange of the distributed optimizers (DESIGN.md §15).
//
// Every compressed collective — DistKfac's preconditioned-gradient gather,
// its §7 factor exchange and uncompressed gather fallback, and DistSgd's
// per-layer exchange — is an allgatherv of one finished buffer per rank.
// ChunkedExchange frames each participating rank's buffer with
// ChunkedProducer (chunk_bytes == 0: one chunk per rank), ships the frames
// round by round over Communicator::allgatherv_chunks, and reassembles
// them on chunk::Cursor. A round whose frames fail validation is
// re-gathered alone, up to kMaxDecodeRetries times (recovery.hpp); one-shot
// transport faults therefore cost one retry and leave the delivered bytes
// — and the training trajectory — bit-identical to a clean run. Chunking
// frames finished bytes, so the reassembled buffers equal the sent ones at
// any chunk size.

#include "src/codec/chunk.hpp"
#include "src/comm/communicator.hpp"
#include "src/compress/chunked_stream.hpp"
#include "src/compress/compressor.hpp"
#include "src/optim/recovery.hpp"

#include <span>
#include <vector>

namespace compso::common {
class ThreadPool;
}

namespace compso::optim {

class ChunkedExchange {
 public:
  /// Gathers `send[r]` from every participating rank `r` (other entries
  /// are ignored). Returns true when every buffer reassembled. When a
  /// round exhausts its retries, returns false under an enabled `policy`
  /// and rethrows the PayloadError under a disabled one. Each retry
  /// counts one `decode_retries`.
  bool run(comm::Communicator& comm, const RecoveryPolicy& policy,
           const std::vector<compress::Bytes>& send, std::size_t chunk_bytes);

  /// Rank `r`'s reassembled buffer after a successful run().
  compress::ByteView payload(std::size_t r) const {
    return cursors_[r].payload();
  }

  /// run(), then the decode-and-average of a compressed allgather: every
  /// participating rank's payload is decompressed (fanned out over `pool`
  /// with parallel_for_static, or inline when it is null; any damage, or
  /// a length other than out.size(), is a PayloadError), and `out`
  /// becomes their average: the canonical sum, then
  /// Communicator::mean_of_sum — the rule the raw paths use too.
  /// Returns false, leaving `out` untouched, when the exchange or a
  /// decode failed under an enabled policy.
  bool average(comm::Communicator& comm, const RecoveryPolicy& policy,
               const std::vector<compress::Bytes>& send,
               std::size_t chunk_bytes,
               const compress::GradientCompressor& compressor,
               common::ThreadPool* pool, std::span<float> out);

 private:
  std::vector<compress::ChunkedProducer> producers_;  ///< [rank].
  std::vector<codec::chunk::Cursor> cursors_;         ///< [rank].
  std::vector<std::vector<float>> decoded_;           ///< [rank].
};

}  // namespace compso::optim
