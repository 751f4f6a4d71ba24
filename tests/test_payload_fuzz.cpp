// Deterministic fuzz/property harness for wire format v1 (DESIGN.md,
// "Payload format v1"). For every compressor x codec pair, seeded tensors
// are round-tripped, then each payload is mutated (bit flips, byte
// overwrites, truncation, extension, zeroed regions) and decoded. The
// contract: decode either throws compso::PayloadError or returns a
// bit-exact copy of the reference decode. Anything else — a crash, an
// out-of-bounds read (ASan/UBSan builds), or a silently different result —
// fails the test. A transport-level case drives the same contract through
// the communicator's fault-injection hook and DistSgd.

#include "src/comm/communicator.hpp"
#include "src/compress/compressor.hpp"
#include "src/compress/payload_fuzz.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/optim/dist_sgd.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace cc = compso::codec;
namespace cp = compso::compress;
namespace ct = compso::tensor;
namespace cm = compso::comm;
namespace nn = compso::nn;
namespace opt = compso::optim;

namespace {

struct FuzzCase {
  std::string name;
  std::function<std::unique_ptr<cp::GradientCompressor>()> make;
};

std::vector<FuzzCase> all_cases() {
  std::vector<FuzzCase> cases;
  // COMPSO crossed with every codec of Table 2 (the codec frames ride
  // inside the compressor payload, so this fuzzes both layers at once).
  // The error-feedback wrapper sends the inner compressor's payload
  // unchanged, so EF-over-COMPSO runs the same cross too: the residual
  // path feeds the payload but must not weaken any decode guard.
  for (cc::CodecKind kind : cc::kAllCodecKinds) {
    cases.push_back(
        {std::string("COMPSO_") + cc::to_string(kind), [kind] {
           return cp::make_compso({.encoder = kind});
         }});
    cases.push_back(
        {std::string("EF_COMPSO_") + cc::to_string(kind), [kind] {
           return cp::make_error_feedback(cp::make_compso({.encoder = kind}));
         }});
  }
  cases.push_back({"QSGD", [] { return cp::make_qsgd(8); }});
  cases.push_back({"SZ", [] { return cp::make_sz(4e-3); }});
  cases.push_back({"Cocktail", [] { return cp::make_cocktail(0.2, 8); }});
  cases.push_back({"TopK", [] { return cp::make_topk(0.1); }});
  cases.push_back({"Identity", [] { return cp::make_identity(); }});
  cases.push_back({"EF_TopK", [] {
                     return cp::make_error_feedback(cp::make_topk(0.1));
                   }});
  cases.push_back({"CountSketch", [] {
                     return cp::make_count_sketch(0.25, 3, 0x5EED);
                   }});
  cases.push_back({"RandProj", [] {
                     return cp::make_random_projection(0.25, 0x5EED);
                   }});
  return cases;
}

/// Seeded inputs covering the edge shapes: empty, single element, odd
/// sizes, a realistic block, all-zero (step == 0 path), and constant.
std::vector<std::vector<float>> fuzz_inputs() {
  std::vector<std::vector<float>> inputs;
  ct::Rng rng(0xC0FFEE);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                        std::size_t{256}, std::size_t{2048}}) {
    std::vector<float> v(n);
    rng.fill_normal(v);
    inputs.push_back(std::move(v));
  }
  inputs.emplace_back(512, 0.0F);   // all-zero: quantizer step == 0
  inputs.emplace_back(300, 1.25F);  // constant
  return inputs;
}

bool bit_exact(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

class PayloadFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(PayloadFuzz, LegitimatePayloadsAlwaysDecode) {
  const auto c = GetParam().make();
  ct::Rng sr_rng(7);
  for (const auto& values : fuzz_inputs()) {
    const auto payload = c->compress(values, sr_rng);
    std::vector<float> decoded;
    ASSERT_NO_THROW(decoded = c->decompress(payload)) << values.size();
    ASSERT_EQ(decoded.size(), values.size());
  }
}

TEST_P(PayloadFuzz, MutatedPayloadsThrowOrDecodeExactly) {
  const auto c = GetParam().make();
  ct::Rng sr_rng(7);
  ct::Rng mut_rng(11);
  std::size_t mutations = 0;
  for (const auto& values : fuzz_inputs()) {
    const auto payload = c->compress(values, sr_rng);
    const auto reference = c->decompress(payload);
    for (int trial = 0; trial < 180; ++trial) {
      const auto mutated = cp::mutate_payload(payload, mut_rng);
      ++mutations;
      try {
        const auto decoded = c->decompress(mutated);
        // A decode that "succeeds" on a mutated payload is only legal if
        // the mutation was semantically a no-op: the result must be
        // bit-identical to the reference decode.
        ASSERT_TRUE(bit_exact(decoded, reference))
            << "silent corruption: input size " << values.size()
            << ", trial " << trial;
      } catch (const compso::PayloadError&) {
        // corruption detected through the typed error — the contract.
      }
    }
  }
  EXPECT_GE(mutations, 1000U);
}

TEST_P(PayloadFuzz, EveryMutationKindIsExercised) {
  // Targeted sweep: each mutation kind applied repeatedly so a regression
  // in one decode guard cannot hide behind the mixed distribution.
  const auto c = GetParam().make();
  ct::Rng sr_rng(19);
  ct::Rng mut_rng(23);
  std::vector<float> values(1024);
  sr_rng.fill_normal(values);
  const auto payload = c->compress(values, sr_rng);
  const auto reference = c->decompress(payload);
  for (int kind = 0; kind < cp::kMutationKinds; ++kind) {
    for (int trial = 0; trial < 40; ++trial) {
      const auto mutated = cp::apply_mutation(
          payload, static_cast<cp::Mutation>(kind), mut_rng);
      try {
        const auto decoded = c->decompress(mutated);
        ASSERT_TRUE(bit_exact(decoded, reference)) << "kind " << kind;
      } catch (const compso::PayloadError&) {
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, PayloadFuzz,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& info) { return info.param.name; });

// --- transport-level corruption ------------------------------------------

TEST(TransportFault, CorruptedAllgatherIsDetectedByDistSgd) {
  // A fault-injecting transport flips one payload bit in flight; the
  // optimizer decodes from the received stream, so the wire-format checks
  // must surface the damage as PayloadError instead of training on garbage.
  std::vector<nn::Model> replicas;
  std::vector<nn::Model*> ptrs;
  for (int r = 0; r < 2; ++r) {
    ct::Rng rng(555);
    replicas.push_back(nn::make_mlp_classifier(8, 12, 3, 1, rng));
  }
  for (auto& m : replicas) ptrs.push_back(&m);
  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  ct::Rng fault_rng(99);
  comm.set_payload_fault([&fault_rng](std::vector<std::uint8_t>& bytes) {
    if (bytes.empty()) return;
    const std::uint64_t bit = fault_rng.uniform_index(bytes.size() * 8);
    bytes[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1U << (bit % 8));
  });
  opt::DistSgd sgd(comm, ptrs);
  const auto compso = cp::make_compso({});
  nn::ClusterDataset dataset(8, 3, 0.4F, 77);
  ct::Rng data_rng(1), sr_rng(2);
  for (auto& m : replicas) {
    const auto batch = dataset.sample(8, data_rng);
    const auto logits = m.forward(batch.x);
    ct::Tensor grad;
    nn::softmax_cross_entropy(logits, batch.labels, grad);
    m.backward(grad);
  }
  EXPECT_THROW(sgd.step(0.05, compso.get(), sr_rng), compso::PayloadError);
}

TEST(TransportFault, CleanAllgatherStillTrains) {
  // Sanity: with no fault installed the recv-side decode path must behave
  // exactly like the trusted path did.
  std::vector<nn::Model> replicas;
  std::vector<nn::Model*> ptrs;
  for (int r = 0; r < 2; ++r) {
    ct::Rng rng(555);
    replicas.push_back(nn::make_mlp_classifier(8, 12, 3, 1, rng));
  }
  for (auto& m : replicas) ptrs.push_back(&m);
  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  opt::DistSgd sgd(comm, ptrs);
  const auto compso = cp::make_compso({});
  nn::ClusterDataset dataset(8, 3, 0.4F, 77);
  ct::Rng data_rng(1), sr_rng(2);
  for (auto& m : replicas) {
    const auto batch = dataset.sample(8, data_rng);
    const auto logits = m.forward(batch.x);
    ct::Tensor grad;
    nn::softmax_cross_entropy(logits, batch.labels, grad);
    m.backward(grad);
  }
  EXPECT_NO_THROW(sgd.step(0.05, compso.get(), sr_rng));
}

}  // namespace
