#include "src/comm/membership.hpp"

#include <algorithm>
#include <limits>

namespace compso::comm {
namespace {

/// The ladder's thresholds (see membership.hpp).
constexpr std::uint64_t kSuspectAfterMisses = 2;   ///< missed heartbeats.
constexpr std::uint64_t kStraggleSuspectAfter = 3;  ///< deadline exclusions.
constexpr std::uint64_t kProbeBackoffInitial = 1;  ///< first probe, iters.
constexpr std::uint64_t kProbeBackoffFactor = 2;   ///< per failed probe.
constexpr std::uint64_t kEvictAfterProbes = 2;     ///< failed probes.

}  // namespace

const char* to_string(RankPhase phase) noexcept {
  switch (phase) {
    case RankPhase::kHealthy: return "healthy";
    case RankPhase::kSuspect: return "suspect";
    case RankPhase::kEvicted: return "evicted";
    case RankPhase::kRejoining: return "rejoining";
  }
  return "unknown";
}

Membership::Membership(std::size_t world) : rs_(world) {}

void Membership::set_alive(std::size_t rank, bool alive) noexcept {
  if (rank < rs_.size()) rs_[rank].alive = alive ? 1 : 0;
}

void Membership::silence(std::size_t rank, std::size_t t,
                         std::size_t duration) noexcept {
  if (rank < rs_.size()) {
    rs_[rank].silenced_until =
        std::max<std::uint64_t>(rs_[rank].silenced_until, t + duration);
  }
}

bool Membership::alive(std::size_t rank) const noexcept {
  return rank < rs_.size() && rs_[rank].alive != 0;
}

bool Membership::heartbeat_visible(std::size_t rank,
                                   std::size_t t) const noexcept {
  return rank < rs_.size() && rs_[rank].alive != 0 &&
         t >= rs_[rank].silenced_until;
}

RankPhase Membership::phase(std::size_t rank) const noexcept {
  return rank < rs_.size() ? rs_[rank].phase : RankPhase::kEvicted;
}

std::uint64_t Membership::misses(std::size_t rank) const noexcept {
  return rank < rs_.size() ? rs_[rank].misses : 0;
}

void Membership::mark_evicted(std::size_t rank) noexcept {
  if (rank >= rs_.size()) return;
  rs_[rank].phase = RankPhase::kEvicted;
  rs_[rank].stale = 1;
}

void Membership::mark_rejoining(std::size_t rank, std::size_t t) noexcept {
  if (rank >= rs_.size()) return;
  auto& st = rs_[rank];
  st.phase = RankPhase::kRejoining;
  st.rejoin_iter = t;
  st.misses = 0;
  st.strikes = 0;
  st.probes_failed = 0;
  st.probe_interval = 0;
  st.next_probe = 0;
}

void Membership::mark_healthy(std::size_t rank) noexcept {
  if (rank >= rs_.size()) return;
  auto& st = rs_[rank];
  st.phase = RankPhase::kHealthy;
  st.stale = 0;
  st.misses = 0;
  st.strikes = 0;
  st.probes_failed = 0;
  st.probe_interval = 0;
  st.next_probe = 0;
}

MembershipDecisions Membership::tick(std::size_t t,
                                     std::span<const double> clock_times,
                                     const std::vector<std::uint8_t>& active) {
  const std::size_t world = rs_.size();
  MembershipDecisions d;
  d.participating.assign(world, 0);

  // Promote ranks that completed their resync step in iteration t-1. This
  // must happen before anything else so a restore mid-rejoin continues the
  // identical schedule: the rejoiner participates from the tick after its
  // rejoin_iter, whether or not a save/restore happened in between.
  for (std::size_t r = 0; r < world; ++r) {
    if (rs_[r].phase == RankPhase::kRejoining && t > rs_[r].rejoin_iter) {
      mark_healthy(r);
    }
  }

  // Externally evicted ranks (mask edits outside the ladder) are folded in
  // so the ledger never disagrees with the group mask.
  for (std::size_t r = 0; r < world; ++r) {
    if (r < active.size() && active[r] == 0 &&
        rs_[r].phase != RankPhase::kEvicted) {
      mark_evicted(r);
    }
  }

  // Arrival reference: the earliest clock among the ranks expected to show
  // up at this step's barrier. Participants march in lockstep (collectives
  // synchronize them), so a straggler's lag over this reference is exactly
  // how late it arrives.
  double ref = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < world; ++r) {
    if (r < active.size() && active[r] != 0 && rs_[r].alive != 0 &&
        rs_[r].phase == RankPhase::kHealthy) {
      ref = std::min(ref, clock_times[r]);
    }
  }
  if (ref == std::numeric_limits<double>::infinity()) {
    for (std::size_t r = 0; r < world; ++r) {
      if (r < active.size() && active[r] != 0 && rs_[r].alive != 0) {
        ref = std::min(ref, clock_times[r]);
      }
    }
  }
  if (ref == std::numeric_limits<double>::infinity()) ref = 0.0;

  for (std::size_t r = 0; r < world; ++r) {
    auto& st = rs_[r];
    const bool hb = heartbeat_visible(r, t);
    if (hb) st.last_heartbeat = t;
    const bool in_group = r < active.size() && active[r] != 0;

    if (!in_group) {
      // Evicted: the only way back is a heartbeat, which starts the
      // readmit + rejoin ladder (the Communicator applies the mask flip).
      if (st.phase == RankPhase::kEvicted && hb) d.readmitted.push_back(r);
      continue;
    }

    // A rank arrives at the barrier iff it is physically running and within
    // the deadline of the group's front. Death is visible here only as
    // absence — the *decision* ladder below runs on heartbeats alone.
    const bool arrived =
        st.alive != 0 && clock_times[r] - ref <= kStragglerDeadlineS;

    switch (st.phase) {
      case RankPhase::kHealthy: {
        if (hb) {
          st.misses = 0;
        } else {
          ++st.misses;
          ++d.misses;
          if (st.misses >= kSuspectAfterMisses) {
            st.phase = RankPhase::kSuspect;
            st.probes_failed = 0;
            st.probe_interval = kProbeBackoffInitial;
            st.next_probe = t + st.probe_interval;
            d.suspected.push_back(r);
            break;  // newly suspect: excluded below, nobody waits.
          }
        }
        if (arrived) {
          if (st.stale != 0) {
            // Came back from an excluded step: must resync before it may
            // contribute again (its replica missed collective updates).
            mark_rejoining(r, t);
            d.redeemed.push_back(r);
          } else {
            st.strikes = 0;
            d.participating[r] = 1;
          }
        } else {
          // Ladder rungs 1+2: everyone waits out the deadline, then the
          // step continues without this rank (renormalized averages).
          st.stale = 1;
          ++d.waited_for;
          d.excluded.push_back(r);
          if (st.alive != 0) {
            ++st.strikes;
            if (st.strikes >= kStraggleSuspectAfter) {
              st.phase = RankPhase::kSuspect;
              st.probes_failed = 0;
              st.probe_interval = kProbeBackoffInitial;
              st.next_probe = t + st.probe_interval;
              d.suspected.push_back(r);
            }
          }
        }
        break;
      }
      case RankPhase::kSuspect: {
        if (hb && arrived) {
          mark_rejoining(r, t);
          d.redeemed.push_back(r);
          break;
        }
        if (t >= st.next_probe) {
          ++st.probes_failed;
          if (st.probes_failed >= kEvictAfterProbes) {
            d.evicted.push_back(r);
          } else {
            st.probe_interval *= kProbeBackoffFactor;
            st.next_probe = t + st.probe_interval;
          }
        }
        break;
      }
      case RankPhase::kRejoining:
        // Resync step in flight: sits this step out; promoted next tick.
        break;
      case RankPhase::kEvicted:
        // Mask says active but ledger says evicted — mask-driven
        // reactivation without the rejoin ladder; treat as healthy-absent
        // until the next heartbeat settles it.
        break;
    }
  }

  // The group must keep at least one participant (mirrors evict()'s
  // last-rank guard): fall back to the first active rank if the ladder
  // excluded everyone.
  bool any = false;
  for (auto p : d.participating) any = any || p != 0;
  if (!any) {
    for (std::size_t r = 0; r < world; ++r) {
      if (r < active.size() && active[r] != 0) {
        d.participating[r] = 1;
        break;
      }
    }
  }
  return d;
}

void Membership::serialize(std::vector<std::uint8_t>& out) const {
  using codec::wire::put_u64;
  using codec::wire::put_u8;
  put_u64(out, rs_.size());
  for (const auto& st : rs_) {
    put_u8(out, static_cast<std::uint8_t>(st.phase));
    put_u8(out, st.alive);
    put_u8(out, st.stale);
    put_u64(out, st.silenced_until);
    put_u64(out, st.misses);
    put_u64(out, st.strikes);
    put_u64(out, st.probes_failed);
    put_u64(out, st.probe_interval);
    put_u64(out, st.next_probe);
    put_u64(out, st.last_heartbeat);
    put_u64(out, st.rejoin_iter);
  }
}

void Membership::deserialize(codec::wire::Reader& reader) {
  const auto count = reader.bounded_u64(1 << 20, "membership ranks");
  if (count != rs_.size()) {
    throw PayloadError("membership: rank count mismatch");
  }
  for (auto& st : rs_) {
    const auto phase = reader.u8();
    if (phase > static_cast<std::uint8_t>(RankPhase::kRejoining)) {
      throw PayloadError("membership: bad rank phase");
    }
    st.phase = static_cast<RankPhase>(phase);
    st.alive = reader.u8();
    st.stale = reader.u8();
    st.silenced_until = reader.u64();
    st.misses = reader.u64();
    st.strikes = reader.u64();
    st.probes_failed = reader.u64();
    st.probe_interval = reader.u64();
    st.next_probe = reader.u64();
    st.last_heartbeat = reader.u64();
    st.rejoin_iter = reader.u64();
  }
}

}  // namespace compso::comm
