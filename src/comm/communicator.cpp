#include "src/comm/communicator.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace compso::comm {

std::string RecoveryStats::to_string() const {
  std::ostringstream os;
  os << "faults[corrupt=" << corrupt_injected << " drop=" << drops_injected
     << " trunc=" << truncations_injected << " straggle=" << straggler_events
     << "] recovery[retry=" << decode_retries << " fail=" << decode_failures
     << " fallback=" << fallback_steps << " degraded=" << degraded_layers
     << " evict=" << evictions << " nan_skip=" << nonfinite_skips
     << " tighten=" << bound_tightenings << " ckpt_save=" << checkpoint_saves
     << " ckpt_restore=" << checkpoint_restores
     << "] membership[miss=" << heartbeat_misses << " suspect=" << suspicions
     << " wait=" << deadline_waits << " exclude=" << deadline_exclusions
     << " readmit=" << readmissions << " resync=" << resyncs << "]";
  return os.str();
}

double SimClocks::max_time() const noexcept {
  double m = 0.0;
  for (double t : t_) m = std::max(m, t);
  return m;
}

void SimClocks::sync_advance_masked(
    double dt, const std::vector<std::uint8_t>& mask) noexcept {
  double start = 0.0;
  bool any = false;
  for (std::size_t r = 0; r < t_.size(); ++r) {
    if (r < mask.size() && mask[r] != 0) {
      start = any ? std::max(start, t_[r]) : t_[r];
      any = true;
    }
  }
  if (!any) return;
  for (std::size_t r = 0; r < t_.size(); ++r) {
    if (r < mask.size() && mask[r] != 0) t_[r] = start + dt;
  }
}

std::size_t Communicator::active_count() const noexcept {
  std::size_t n = 0;
  for (auto a : active_) n += a != 0 ? 1 : 0;
  return n;
}

std::vector<std::size_t> Communicator::active_ranks() const {
  std::vector<std::size_t> out;
  out.reserve(active_.size());
  for (std::size_t r = 0; r < active_.size(); ++r) {
    if (active_[r] != 0) out.push_back(r);
  }
  return out;
}

std::size_t Communicator::first_active_rank() const {
  for (std::size_t r = 0; r < active_.size(); ++r) {
    if (active_[r] != 0) return r;
  }
  throw std::logic_error("Communicator: every rank has been evicted");
}

std::size_t Communicator::participant_count() const noexcept {
  std::size_t n = 0;
  for (auto p : participating_) n += p != 0 ? 1 : 0;
  return n;
}

std::vector<std::size_t> Communicator::participant_ranks() const {
  std::vector<std::size_t> out;
  out.reserve(participating_.size());
  for (std::size_t r = 0; r < participating_.size(); ++r) {
    if (participating_[r] != 0) out.push_back(r);
  }
  return out;
}

std::size_t Communicator::first_participant() const {
  for (std::size_t r = 0; r < participating_.size(); ++r) {
    if (participating_[r] != 0) return r;
  }
  throw std::logic_error("Communicator: no participating ranks");
}

bool Communicator::is_rejoining(std::size_t rank) const noexcept {
  for (std::size_t r : rejoining_) {
    if (r == rank) return true;
  }
  return false;
}

void Communicator::record_collective(std::string_view op, double dt,
                                     std::uint64_t bytes) {
  if (!obs_.enabled()) return;
  const std::uint64_t dt_ns = obs::seconds_to_ns(dt);
  std::string name = "comm.";
  name += op;
  const std::size_t stem = name.size();
  name += ".calls";
  obs_.count(name);
  name.resize(stem);
  name += ".bytes";
  obs_.count(name, bytes);
  name.resize(stem);
  name += ".sim_ns";
  obs_.count(name, dt_ns);
  name.resize(stem);
  obs_.observe(name, dt_ns);
  if (obs_.tracer != nullptr) {
    // The collective just finished: it occupies [now - dt, now] on the
    // tracer clock (exactly, under the sim clock; best-effort placement
    // under a wall clock).
    const std::uint64_t end_ns = obs_.tracer->now_rel_ns();
    const std::uint64_t ts_ns = end_ns >= dt_ns ? end_ns - dt_ns : 0;
    obs_.complete(obs::kMainTrack, std::move(name), "comm", ts_ns, dt_ns,
                  {{"bytes", bytes}});
  }
}

void Communicator::evict(std::size_t rank) {
  if (rank >= active_.size() || active_[rank] == 0) return;
  if (active_count() <= 1) {
    throw std::logic_error("Communicator: cannot evict the last rank");
  }
  active_[rank] = 0;
  participating_[rank] = 0;
  membership_.mark_evicted(rank);
  ++recovery_.evictions;
  obs_.count("recovery.evictions");
  obs_.instant(obs::kMainTrack, "membership.evict", "membership",
               {{"rank", rank}, {"iteration", last_tick_}});
}

void Communicator::readmit_at(std::size_t rank, std::size_t iter) {
  if (rank >= active_.size() || active_[rank] != 0) return;
  active_[rank] = 1;
  participating_[rank] = 0;
  membership_.mark_rejoining(rank, iter);
  // The rejoiner re-enters at the group's front: it fetches a survivor's
  // state during the resync step and marches with everyone afterwards.
  double front = clocks_.at(rank);
  for (std::size_t r = 0; r < participating_.size(); ++r) {
    if (participating_[r] != 0) front = std::max(front, clocks_.at(r));
  }
  clocks_.advance(rank, front - clocks_.at(rank));
  ++recovery_.readmissions;
  obs_.count("recovery.readmissions");
  obs_.instant(obs::kMainTrack, "membership.readmit", "membership",
               {{"rank", rank}, {"iteration", iter}});
}

void Communicator::refresh_participation() {
  participating_.assign(active_.size(), 0);
  rejoining_.clear();
  bool any = false;
  for (std::size_t r = 0; r < active_.size(); ++r) {
    if (active_[r] == 0) continue;
    if (membership_.phase(r) == RankPhase::kRejoining) rejoining_.push_back(r);
    if (membership_.phase(r) == RankPhase::kHealthy) {
      participating_[r] = 1;
      any = true;
    }
  }
  if (!any && active_count() > 0) participating_[first_active_rank()] = 1;
}

void Communicator::set_active_mask(const std::vector<std::uint8_t>& mask) {
  if (mask.size() != active_.size()) {
    throw std::invalid_argument("set_active_mask: size mismatch");
  }
  bool any = false;
  for (auto m : mask) any = any || m != 0;
  if (!any) {
    // Mirrors evict()'s last-rank guard: the group can never go empty.
    throw std::invalid_argument(
        "set_active_mask: at least one rank must stay active");
  }
  for (std::size_t r = 0; r < mask.size(); ++r) {
    if (active_[r] != 0 && mask[r] == 0) {
      membership_.mark_evicted(r);
      ++recovery_.evictions;
      obs_.count("recovery.evictions");
    } else if (active_[r] == 0 && mask[r] != 0) {
      // Reactivating an evicted rank is a readmission, never a silent
      // mask flip. The checkpoint-restore path overwrites the counters and
      // the membership ledger right after, so continuity is preserved.
      membership_.mark_healthy(r);
      ++recovery_.readmissions;
      obs_.count("recovery.readmissions");
    }
  }
  active_ = mask;
  refresh_participation();
}

void Communicator::begin_iteration(std::size_t t) {
  last_tick_ = t;
  if (injector_ != nullptr) {
    injector_->begin_iteration(t);
    // Physical plane only: the plan changes what the cluster *does* (who
    // is alive, whose heartbeats get lost, who runs slow). Detection below
    // never reads these events — it watches the heartbeat ledger.
    for (const auto& e : injector_->take_all(FaultKind::kCrash)) {
      membership_.set_alive(e.rank, false);
    }
    for (const auto& e : injector_->take_all(FaultKind::kSilence)) {
      membership_.silence(e.rank, t, e.duration);
    }
    for (const auto& e : injector_->take_all(FaultKind::kRecover)) {
      membership_.set_alive(e.rank, true);
    }
    for (const auto& e : injector_->take_all(FaultKind::kStraggler)) {
      if (is_active(e.rank)) {
        clocks_.advance(e.rank, e.slowdown_s);
        ++recovery_.straggler_events;
        obs_.count("recovery.straggler_events");
      }
    }
  }
  auto d = membership_.tick(t, clocks_.times(), active_);
  participating_ = std::move(d.participating);
  if (d.misses > 0) {
    recovery_.heartbeat_misses += d.misses;
    obs_.count("recovery.heartbeat_misses", d.misses);
  }
  for (std::size_t r : d.suspected) {
    ++recovery_.suspicions;
    obs_.count("recovery.suspicions");
    obs_.instant(obs::kMainTrack, "membership.suspect", "membership",
                 {{"rank", r}, {"iteration", t}});
  }
  for (std::size_t r : d.excluded) {
    ++recovery_.deadline_exclusions;
    obs_.count("recovery.deadline_exclusions");
    obs_.instant(obs::kMainTrack, "membership.exclude", "membership",
                 {{"rank", r}, {"iteration", t}});
  }
  if (d.waited_for > 0) {
    // Ladder rung 1: the group stalls at the barrier for the full deadline
    // before continuing without the absentees (one wait per step).
    recovery_.deadline_waits += d.waited_for;
    obs_.count("recovery.deadline_waits", d.waited_for);
    clocks_.sync_advance_masked(kStragglerDeadlineS, participating_);
  }
  for (std::size_t r : d.evicted) {
    if (active_count() > 1) {
      evict(r);
    }
    // Last-rank guard: an unevictable suspect keeps being probed; the
    // ladder retries on subsequent ticks.
  }
  for (std::size_t r : d.redeemed) {
    obs_.instant(obs::kMainTrack, "membership.redeem", "membership",
                 {{"rank", r}, {"iteration", t}});
  }
  for (std::size_t r : d.readmitted) {
    readmit_at(r, t);
  }
  rejoining_.clear();
  for (std::size_t r = 0; r < active_.size(); ++r) {
    if (membership_.phase(r) == RankPhase::kRejoining) rejoining_.push_back(r);
  }
}

CollectiveAlgo Communicator::allreduce_algo(std::size_t bytes)
    const noexcept {
  return select_allreduce_algo(coll_, topo_, net_, participant_count(),
                               bytes);
}

CollectiveAlgo Communicator::allgather_algo(std::size_t bytes)
    const noexcept {
  return select_algo(coll_, topo_, participant_count(), bytes);
}

double Communicator::allreduce_time(std::size_t bytes) const noexcept {
  // With selection off this is the legacy flat-ring formula bit for bit
  // (comm::allreduce_time(kRing, ...) reproduces it exactly).
  return comm::allreduce_time(allreduce_algo(bytes), topo_, net_,
                              participant_count(), bytes);
}

double Communicator::allgather_time(std::size_t bytes_per_rank)
    const noexcept {
  return comm::allgather_time(allgather_algo(bytes_per_rank), topo_, net_,
                              participant_count(), bytes_per_rank);
}

double Communicator::allgatherv_time(
    std::span<const std::size_t> bytes_per_rank) const noexcept {
  std::size_t total = 0;
  for (std::size_t b : bytes_per_rank) total += b;
  return comm::allgatherv_time(allgather_algo(total), topo_, net_,
                               participant_count(), bytes_per_rank);
}

double Communicator::reduce_time(std::size_t bytes) const noexcept {
  return comm::reduce_time(allreduce_algo(bytes), topo_, net_,
                           participant_count(), bytes);
}

double Communicator::pipelined_broadcast_time(std::size_t bytes)
    const noexcept {
  return comm::pipelined_broadcast_time(topo_, net_, participant_count(),
                                        bytes);
}

std::size_t Communicator::check_buffers(
    const char* op, const std::vector<std::span<float>>& bufs,
    std::size_t ref) const {
  if (bufs.size() != world_size()) {
    throw std::invalid_argument(std::string(op) +
                                ": need one buffer per rank");
  }
  const std::size_t n = bufs[ref].size();
  for (std::size_t r = 0; r < bufs.size(); ++r) {
    if (is_participating(r) && bufs[r].size() != n) {
      throw std::invalid_argument(std::string(op) + ": buffer size mismatch");
    }
  }
  return n;
}

void Communicator::canonical_sum(const std::vector<std::span<float>>& bufs,
                                 std::span<float> dst) const {
  // Each tile reads every participant's slice before it writes dst's, so
  // dst may alias a participant; per element the adds run in rank order,
  // the same bits as summing whole buffers in place.
  constexpr std::size_t kTile = 1024;
  float acc[kTile] = {};
  const std::size_t lead = first_participant();
  for (std::size_t off = 0; off < dst.size(); off += kTile) {
    const std::size_t len = std::min(kTile, dst.size() - off);
    std::copy_n(bufs[lead].data() + off, len, acc);
    for (std::size_t r = lead + 1; r < bufs.size(); ++r) {
      if (!is_participating(r)) continue;
      const float* src = bufs[r].data() + off;
      for (std::size_t i = 0; i < len; ++i) acc[i] += src[i];
    }
    std::copy_n(acc, len, dst.data() + off);
  }
}

void Communicator::mean_of_sum(std::span<const float> sum,
                               std::span<float> out) const {
  if (sum.size() != out.size()) {
    throw std::invalid_argument("mean_of_sum: size mismatch");
  }
  const float inv = 1.0F / static_cast<float>(participant_count());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = sum[i] * inv;
}

void Communicator::allreduce_sum(std::vector<std::span<float>> bufs) {
  const std::size_t lead = first_participant();
  const std::size_t n = check_buffers("allreduce_sum", bufs, lead);
  // Sum into the lead participant's buffer, then replicate it to the
  // other participants.
  canonical_sum(bufs, bufs[lead]);
  for (std::size_t r = lead + 1; r < bufs.size(); ++r) {
    if (!is_participating(r)) continue;
    std::copy(bufs[lead].begin(), bufs[lead].end(), bufs[r].begin());
  }
  const double dt = allreduce_time(n * sizeof(float));
  clocks_.sync_advance_masked(dt, participating_);
  stats_.allreduce_s += dt;
  stats_.allreduce_bytes += n * sizeof(float);
  record_collective("allreduce", dt, n * sizeof(float));
}

void Communicator::reduce_sum(std::vector<std::span<float>> bufs,
                              std::size_t root) {
  if (!is_participating(root)) {
    throw std::invalid_argument("reduce_sum: root is not participating");
  }
  const std::size_t n = check_buffers("reduce_sum", bufs, root);
  canonical_sum(bufs, bufs[root]);
  const double dt = reduce_time(n * sizeof(float));
  clocks_.sync_advance_masked(dt, participating_);
  // Rides the allreduce row: the sharded factor exchange replaces a
  // factor allreduce, and obs/CommStats reconciliation stays one-to-one.
  stats_.allreduce_s += dt;
  stats_.allreduce_bytes += n * sizeof(float);
  record_collective("allreduce", dt, n * sizeof(float));
}

void Communicator::allgatherv_chunks(
    const std::vector<std::span<const std::uint8_t>>& send,
    std::vector<std::vector<std::uint8_t>>& recv, std::size_t round) {
  if (send.size() != world_size()) {
    throw std::invalid_argument("allgatherv_chunks: need one frame per rank");
  }
  // One-shot transport faults: chunk-scoped events match this round, and
  // whole-payload events land on round 0, so a retried round sees clean
  // data.
  const auto hit = [&](FaultKind kind, std::size_t r) {
    return injector_->take_chunk(kind, r, round) ||
           (round == 0 && injector_->take(kind, r));
  };
  std::vector<std::size_t> sizes;
  sizes.reserve(send.size());
  recv.assign(world_size(), {});
  std::uint64_t delivered = 0;
  for (std::size_t r = 0; r < send.size(); ++r) {
    if (!is_participating(r)) continue;
    // Intended (pre-fault) sizes drive the wire time.
    sizes.push_back(send[r].size());
    std::vector<std::uint8_t> frame(send[r].begin(), send[r].end());
    if (injector_ != nullptr && !frame.empty()) {
      if (hit(FaultKind::kCorruptPayload, r)) {
        injector_->corrupt_payload(frame);
        ++recovery_.corrupt_injected;
        obs_.count("recovery.corrupt_injected");
      }
      if (hit(FaultKind::kTruncateEntry, r)) {
        injector_->truncate_payload(frame);
        ++recovery_.truncations_injected;
        obs_.count("recovery.truncations_injected");
      }
      if (hit(FaultKind::kDropEntry, r)) {
        frame.clear();
        ++recovery_.drops_injected;
        obs_.count("recovery.drops_injected");
      }
    }
    if (fault_ && !frame.empty()) fault_(frame);
    delivered += frame.size();
    recv[r] = std::move(frame);
  }
  const double dt = allgatherv_time(sizes);
  clocks_.sync_advance_masked(dt, participating_);
  stats_.allgather_s += dt;
  stats_.allgather_bytes += delivered;
  record_collective("allgather", dt, delivered);
  obs_.count("chunk.rounds");
  obs_.count("chunk.bytes", delivered);
}

}  // namespace compso::comm
