#include "src/optim/exchange.hpp"

#include "src/common/payload_error.hpp"
#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <span>

namespace compso::optim {

bool ChunkedExchange::run(comm::Communicator& comm,
                          const RecoveryPolicy& policy,
                          const std::vector<compress::Bytes>& send,
                          std::size_t chunk_bytes) {
  const std::size_t world = comm.world_size();
  producers_.resize(world);
  cursors_.resize(world);
  std::size_t rounds = 0;
  for (std::size_t r = 0; r < world; ++r) {
    cursors_[r].reset();
    if (!comm.is_participating(r)) continue;
    producers_[r].frame(compress::ByteView(send[r]), chunk_bytes);
    rounds = std::max(rounds, producers_[r].chunk_count());
  }

  const std::size_t attempts = policy.enabled ? kMaxDecodeRetries + 1 : 1;
  std::vector<std::span<const std::uint8_t>> frames(world);
  std::vector<std::vector<std::uint8_t>> recv;
  for (std::size_t k = 0; k < rounds; ++k) {
    for (std::size_t r = 0; r < world; ++r) {
      const bool has =
          comm.is_participating(r) && k < producers_[r].chunk_count();
      frames[r] = has ? producers_[r].chunk(k) : compress::ByteView();
    }
    for (std::size_t attempt = 1;; ++attempt) {
      comm.allgatherv_chunks(frames, recv, k);
      try {
        for (std::size_t r = 0; r < world; ++r) {
          // A failed attempt may have fed some ranks before another's
          // frame threw; chunks_fed() > k marks those as done this round.
          if (frames[r].empty() || cursors_[r].chunks_fed() > k) continue;
          cursors_[r].feed(compress::ByteView(recv[r]));
        }
        break;
      } catch (const PayloadError&) {
        if (!policy.enabled) throw;
        if (attempt == attempts) return false;
        ++comm.recovery().decode_retries;
        comm.obs().count("recovery.decode_retries");
        comm.obs().instant(obs::kMainTrack, "chunk.retry", "recovery");
      }
    }
  }
  return true;
}

bool ChunkedExchange::average(comm::Communicator& comm,
                              const RecoveryPolicy& policy,
                              const std::vector<compress::Bytes>& send,
                              std::size_t chunk_bytes,
                              const compress::GradientCompressor& compressor,
                              common::ThreadPool* pool,
                              std::span<float> out) {
  if (!run(comm, policy, send, chunk_bytes)) return false;
  const std::size_t world = comm.world_size();
  const std::size_t n = out.size();
  decoded_.resize(world);
  // Per-rank decodes are independent, so they fan out over the pool.
  // The sum and average stay on this thread, in the canonical order the
  // raw paths' collectives use, so the float result is deterministic.
  const auto decode = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      if (!comm.is_participating(r)) continue;
      compressor.decompress_into(cursors_[r].payload(), decoded_[r]);
      if (decoded_[r].size() != n) {
        throw PayloadError("exchange: decompressed size mismatch");
      }
    }
  };
  try {
    if (pool != nullptr) {
      pool->parallel_for_static(world, decode);
    } else {
      decode(0, world);
    }
  } catch (const PayloadError&) {
    if (!policy.enabled) throw;
    return false;
  }
  std::vector<std::span<float>> views(world);
  for (std::size_t r = 0; r < world; ++r) {
    if (comm.is_participating(r)) views[r] = decoded_[r];
  }
  comm.canonical_sum(views, out);
  comm.mean_of_sum(out, out);
  return true;
}

}  // namespace compso::optim
