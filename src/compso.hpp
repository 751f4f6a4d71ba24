#pragma once
// Umbrella header: everything a downstream user of the COMPSO library
// needs. Individual module headers remain includable on their own for
// finer-grained builds.
//
//   #include "src/compso.hpp"
//
//   compso::tensor::Rng rng(42);
//   auto c = compso::compress::make_compso({});
//   auto payload = c->compress(gradient, rng);

#include "src/comm/communicator.hpp"
#include "src/comm/fault_injector.hpp"
#include "src/comm/membership.hpp"
#include "src/comm/network_model.hpp"
#include "src/comm/topology.hpp"
#include "src/compress/compressor.hpp"
#include "src/compress/error_feedback.hpp"
#include "src/compress/sketch.hpp"
#include "src/core/adaptive_schedule.hpp"
#include "src/core/bound_tuner.hpp"
#include "src/core/checkpoint.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/core/perf_sim.hpp"
#include "src/gpusim/device_model.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/obs/json.hpp"
#include "src/obs/obs.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/optim/dist_sgd.hpp"
#include "src/optim/lr_scheduler.hpp"
#include "src/perf/perf_model.hpp"
#include "src/quant/filter.hpp"
#include "src/quant/quantizer.hpp"
#include "src/tensor/stats.hpp"
#include "src/tensor/synthetic.hpp"
#include "src/tensor/tensor.hpp"
