#pragma once
// CompsoFramework: the user-facing entry point that ties the pieces of §4
// together — the iteration-wise adaptive schedule, the offline-online
// performance model (encoder selection + layer aggregation), and the
// per-iteration compressor handed to the distributed optimizer.

#include "src/core/adaptive_schedule.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/obs/obs.hpp"
#include "src/perf/perf_model.hpp"

#include <map>
#include <memory>
#include <optional>

namespace compso::core {

struct FrameworkConfig {
  AdaptiveSchedule::Params schedule;
  /// true = COMPSO-p (perf-model aggregation), false = COMPSO-f (fixed).
  bool use_perf_model = true;
  std::size_t fixed_aggregation = 4;  ///< the paper's default factor.
  std::size_t warmup_iterations = 5;  ///< k profiling iterations.
};

class CompsoFramework {
 public:
  CompsoFramework(FrameworkConfig config, const optim::LrScheduler& lr,
                  std::size_t total_iterations,
                  const comm::Communicator& comm,
                  gpusim::DeviceModel dev = gpusim::DeviceModel::a100());

  /// Offline-online tuning (§4.4): builds the comm lookup table, selects
  /// the encoder on a sample of real gradient data, and picks the
  /// layer-aggregation factor from the warm-up profile.
  void tune(const std::vector<std::size_t>& layer_bytes,
            std::span<const float> sample_gradient, double comm_fraction,
            tensor::Rng& rng);

  codec::CodecKind encoder() const noexcept { return encoder_; }
  std::size_t aggregation() const noexcept { return aggregation_; }
  const AdaptiveSchedule& schedule() const noexcept { return schedule_; }
  const perf::CommLookupTable& lookup_table() const noexcept {
    return table_;
  }
  const std::vector<perf::EncoderScore>& encoder_scores() const noexcept {
    return encoder_scores_;
  }
  double estimated_end_to_end() const noexcept { return est_e2e_; }
  /// Warm-up profile measured by the last tune() call (zeroed before).
  /// Exposed so differential tests can re-run the selection math on the
  /// exact same inputs the framework used.
  const perf::WarmupProfile& warmup_profile() const noexcept {
    return profile_;
  }
  /// The aggregation candidates tune() evaluates (paper §4.4).
  static const std::vector<std::size_t>& aggregation_candidates();

  /// One compressor-family candidate for the Eq. 5 pool (DESIGN.md §17).
  struct FamilyCandidate {
    std::string name;
    std::unique_ptr<compress::GradientCompressor> compressor;
  };

  /// The compressor-family pool tune() scores under Eq. 5 (ROADMAP item
  /// 3): COMPSO itself, the strongest baselines with and without the
  /// error-feedback wrapper, and the randomized-linear (sketch) family.
  /// Order is fixed and COMPSO is first; tune() keeps the *earliest*
  /// candidate on an exact end-to-end tie (strict > replaces the best),
  /// so ties resolve toward COMPSO, then toward EF variants. The
  /// differential tuner test enumerates this same pool independently.
  static std::vector<FamilyCandidate> family_candidates(
      const compress::CompsoParams& compso_params);

  /// Per-candidate Rng stream for family scoring: candidate i is scored
  /// with rng.split(kFamilyRngStream + i), leaving the caller's main
  /// draw sequence untouched (the encoder/warm-up replay in the
  /// differential test stays valid).
  static constexpr std::uint64_t kFamilyRngStream = 0xFA171E50ULL;

  /// Eq. 5 scores per family candidate from the last tune() call, in
  /// family_candidates() order.
  const std::vector<perf::FamilyScore>& family_scores() const noexcept {
    return family_scores_;
  }
  /// Name of the family tune() selected (argmax est_end_to_end, ties to
  /// the earliest candidate). "COMPSO" before the first tune() call.
  const std::string& selected_family() const noexcept {
    return selected_family_;
  }

  /// Attaches metrics/tracer hooks: tune() then records per-candidate
  /// encoder and aggregation scores as gauges ("tune.encoder.<name>.*",
  /// "tune.aggregation.m<m>.est_e2e") plus the selected values, and wraps
  /// its phases in spans.
  void set_obs(obs::ObsHooks hooks) noexcept { obs_ = hooks; }

  /// Compressor for iteration t (cached per schedule stage).
  const compress::GradientCompressor* compressor_for(std::size_t t) const;

  /// Adapter for core::train().
  CompressorProvider provider() const {
    return [this](std::size_t t) { return compressor_for(t); };
  }

 private:
  FrameworkConfig cfg_;
  AdaptiveSchedule schedule_;
  perf::CommLookupTable table_;
  gpusim::DeviceModel dev_;
  codec::CodecKind encoder_ = codec::CodecKind::kAns;
  std::size_t aggregation_;
  double est_e2e_ = 1.0;
  std::vector<perf::EncoderScore> encoder_scores_;
  std::vector<perf::FamilyScore> family_scores_;
  std::string selected_family_ = "COMPSO";
  perf::WarmupProfile profile_;
  obs::ObsHooks obs_;
  mutable std::map<std::size_t, std::unique_ptr<compress::GradientCompressor>>
      stage_cache_;
};

}  // namespace compso::core
