#include "adascale/scale_regressor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "runtime/scratch.h"
#include "tensor/loss.h"
#include "util/timer.h"

namespace ada {

std::string RegressorConfig::fingerprint() const {
  std::ostringstream os;
  // v2: GEMM-backed kernels (PR 2) — retrain rather than reuse caches
  // trained under the pre-GEMM accumulation order.
  os << "reg:v2:c=" << in_channels << ":k=";
  for (int k : kernels) os << k << ',';
  os << ":s=" << stream_channels;
  return os.str();
}

ScaleRegressor::ScaleRegressor(const RegressorConfig& cfg, Rng* rng)
    : cfg_(cfg),
      fc_(static_cast<int>(cfg.kernels.size()) * cfg.stream_channels, 1) {
  for (int k : cfg_.kernels) {
    Stream s;
    s.conv = std::make_unique<Conv2dLayer>(cfg_.in_channels,
                                           cfg_.stream_channels, k, 1, k / 2,
                                           /*dilation=*/1, /*fuse_relu=*/true);
    // predict() is the hot path; train_step() re-enables caching around
    // its forward.
    s.conv->set_training(false);
    s.conv->init_he(rng);
    streams_.push_back(std::move(s));
  }
  // Same for the FC head: inference mode also lets a quantized fc_ take
  // the INT8 path (training forwards always stay fp32).
  fc_.set_training(false);
  fc_.init_he(rng);
}

void ScaleRegressor::set_execution_policy(const ExecutionPolicy& policy) {
  policy_ = policy;
  for (Stream& s : streams_) s.conv->set_policy(policy);
  fc_.set_policy(policy);
  invalidate_plans();
}

const ExecutionPlan& ScaleRegressor::plan_for(int n, int fh, int fw) {
  const GemmBackend be = policy_.resolve();
  const auto key = std::make_tuple(n, fh, fw, static_cast<int>(be));
  // Shared with weight-aliased clones; see Detector::plan_for.
  std::lock_guard<std::mutex> lk(plans_->mu);
  auto it = plans_->plans.find(key);
  if (it == plans_->plans.end()) {
    ExecutionPlan plan;
    plan.input = PlanShape{n, cfg_.in_channels, fh, fw};
    plan.policy = policy_.name();
    // Steps in forward() execution order: each stream's conv then its
    // pooling (both reading the shared feature map), then the FC head on
    // the pooled concat.
    for (const Stream& s : streams_) {
      PlanShape shape = plan.input;
      s.conv->plan_forward(&shape, &plan);
      s.gap.plan_forward(&shape, &plan);
    }
    PlanShape concat_shape{
        n, static_cast<int>(streams_.size()) * cfg_.stream_channels, 1, 1};
    fc_.plan_forward(&concat_shape, &plan);
    plan.finalize();
    it = plans_->plans.emplace(key, std::move(plan)).first;
  }
  return it->second;
}

void ScaleRegressor::forward(const Tensor& features) {
  const int sc = cfg_.stream_channels;
  const int total = static_cast<int>(streams_.size()) * sc;
  const int batch = features.n();
  if (concat_.n() != batch || concat_.c() != total)
    concat_.resize(batch, total, 1, 1);
  PlanCursor pc(nullptr);
  const bool planned = use_plans_;
  if (planned) {
    const ExecutionPlan& plan = plan_for(batch, features.h(), features.w());
    scratch_arena().reserve(plan.arena_floats);
    pc = PlanCursor(&plan);
  }
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    Stream& s = streams_[i];
    if (planned) {
      s.conv->forward_planned(features, &s.conv_out, &pc);
      s.gap.forward_planned(s.conv_out, &s.pooled, &pc);
    } else {
      s.conv->forward(features, &s.conv_out);  // ReLU fused into the conv
      s.gap.forward(s.conv_out, &s.pooled);
    }
    for (int n = 0; n < batch; ++n)
      for (int c = 0; c < sc; ++c)
        concat_.at(n, static_cast<int>(i) * sc + c, 0, 0) =
            s.pooled.at(n, c, 0, 0);
  }
  if (planned)
    fc_.forward_planned(concat_, &fc_out_, &pc);
  else
    fc_.forward(concat_, &fc_out_);
}

float ScaleRegressor::predict(const Tensor& features) {
  // Silent misuse on a batched feature map would run the whole batch and
  // return only image 0's t — fail loudly (asserts vanish in Release).
  if (features.n() != 1) {
    std::fprintf(stderr,
                 "ScaleRegressor::predict requires a single image, got %s\n",
                 features.shape_str().c_str());
    std::abort();
  }
  Timer timer;
  forward(features);
  last_predict_ms_ = timer.elapsed_ms();
  return fc_out_.at(0, 0, 0, 0);
}

void ScaleRegressor::quantize(
    const std::vector<Tensor>& calibration_features) {
  for (Stream& s : streams_) s.conv->set_calibration(true);
  fc_.set_calibration(true);
  // Calibration must observe fp32 activations through the eager path.
  use_plans_ = false;
  for (const Tensor& f : calibration_features) forward(f);
  use_plans_ = true;
  for (Stream& s : streams_) s.conv->set_calibration(false);
  fc_.set_calibration(false);
  for (Stream& s : streams_) s.conv->quantize();
  fc_.quantize();
  invalidate_plans();
}

void ScaleRegressor::quantize_like(ScaleRegressor* src) {
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    Conv2dLayer* from = src->streams_[i].conv.get();
    if (from->is_quantized())
      streams_[i].conv->quantize_with_range(from->act_lo(), from->act_hi());
  }
  if (src->fc_.is_quantized())
    fc_.quantize_with_range(src->fc_.act_lo(), src->fc_.act_hi());
  invalidate_plans();
}

std::vector<QuantSummary> ScaleRegressor::quant_summaries() {
  std::vector<QuantSummary> out;
  for (std::size_t i = 0; i < streams_.size(); ++i)
    if (streams_[i].conv->is_quantized())
      out.push_back(summarize_quant(
          *streams_[i].conv,
          "stream_" + std::to_string(cfg_.kernels[i]) + "x" +
              std::to_string(cfg_.kernels[i])));
  if (fc_.is_quantized()) out.push_back(summarize_quant(fc_, "fc"));
  return out;
}

float ScaleRegressor::train_step(const Tensor& features, float target,
                                 Sgd* opt) {
  opt->zero_grad();
  // Fused conv+ReLU streams only cache their backward mask in training
  // mode; toggled back off after the backward below, which also releases
  // the cached activations.  The FC head toggles too so a quantized
  // regressor trains against the fp32 forward, never the INT8 one.
  for (Stream& s : streams_) s.conv->set_training(true);
  fc_.set_training(true);
  // Training forwards run eagerly (backward state, fp32 kernels); weights
  // are about to change, so cached plans go too.
  use_plans_ = false;
  invalidate_plans();
  forward(features);

  float dpred = 0.0f;
  const float loss = mse_scalar(fc_out_.at(0, 0, 0, 0), target, &dpred);

  Tensor dout(1, 1, 1, 1);
  dout.at(0, 0, 0, 0) = dpred;
  Tensor dconcat(1, concat_.c(), 1, 1);
  fc_.backward(dout, &dconcat);

  const int sc = cfg_.stream_channels;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    Stream& s = streams_[i];
    Tensor dpool(1, sc, 1, 1);
    for (int c = 0; c < sc; ++c)
      dpool.at(0, c, 0, 0) = dconcat.at(0, static_cast<int>(i) * sc + c, 0, 0);
    Tensor dconv(1, sc, s.conv_out.h(), s.conv_out.w());
    s.gap.backward(dpool, &dconv);
    s.conv->backward(dconv, nullptr);  // masks by ReLU sign; features frozen
  }
  for (Stream& s : streams_) s.conv->set_training(false);
  fc_.set_training(false);
  use_plans_ = true;
  opt->step();
  return loss;
}

float ScaleRegressor::fine_tune(const std::vector<Tensor>& features,
                                const std::vector<float>& targets,
                                int epochs, float lr) {
  assert(features.size() == targets.size());
  Sgd::Options opt;
  opt.lr = lr;
  opt.weight_decay = 0.0f;  // alignment, not regularized re-training
  Sgd sgd(parameters(), opt);
  float mse = 0.0f;
  for (int e = 0; e < epochs; ++e) {
    mse = 0.0f;
    for (std::size_t i = 0; i < features.size(); ++i)
      mse += train_step(features[i], targets[i], &sgd);
    mse /= static_cast<float>(std::max<std::size_t>(features.size(), 1));
  }
  return mse;
}

std::vector<Param*> ScaleRegressor::parameters() {
  std::vector<Param*> out;
  for (Stream& s : streams_) s.conv->collect_params(&out);
  fc_.collect_params(&out);
  return out;
}

std::unique_ptr<ScaleRegressor> clone_regressor(ScaleRegressor* src) {
  Rng rng(0);  // initialization is immediately overwritten
  auto dst = std::make_unique<ScaleRegressor>(src->config(), &rng);
  copy_param_values(src->parameters(), dst->parameters());
  if (src->quantized()) dst->quantize_like(src);
  dst->set_execution_policy(src->execution_policy());
  return dst;
}

void ScaleRegressor::share_storage_with(ScaleRegressor* src) {
  if (streams_.size() != src->streams_.size()) {
    std::fprintf(stderr,
                 "ScaleRegressor::share_storage_with: stream count mismatch "
                 "(%zu vs %zu)\n",
                 streams_.size(), src->streams_.size());
    std::abort();
  }
  for (std::size_t i = 0; i < streams_.size(); ++i)
    streams_[i].conv->share_params_with(src->streams_[i].conv.get());
  fc_.share_params_with(&src->fc_);
  plans_ = src->plans_;
}

std::unique_ptr<ScaleRegressor> clone_regressor_shared(ScaleRegressor* src) {
  // Full clone first (per-instance INT8 tables frozen from own fp32 copy),
  // then alias the fp32/grad storage; see clone_detector_shared.
  auto dst = clone_regressor(src);
  dst->share_storage_with(src);
  return dst;
}

}  // namespace ada
