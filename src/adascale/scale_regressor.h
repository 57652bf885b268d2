// The scale regressor module (Sec. 3.2, Fig. 4).
//
// Takes the detector's deep features X ∈ R^{C×H×W} and regresses the Eq. (3)
// relative-scale target.  Architecture per the paper: parallel convolution
// streams — a 1×1 conv capturing per-channel size information and a 3×3 conv
// capturing local patch complexity (Table 3 also ablates adding a 5×5) —
// each followed by a non-linearity and global pooling ("a voting process"),
// then a fully-connected layer combining the pooled streams into one scalar.
//
// The regressor trains with MSE (Eq. 4) while all detector weights stay
// frozen, exactly as in the paper.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "nn/layers.h"
#include "nn/sgd.h"
#include "runtime/exec_plan.h"
#include "runtime/exec_policy.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace ada {

struct RegressorConfig {
  int in_channels = 40;               ///< detector deep-feature channels
  std::vector<int> kernels = {1, 3};  ///< stream kernel sizes (Table 3)
  int stream_channels = 16;           ///< conv output channels per stream

  std::string fingerprint() const;
};

/// g : R^{C×H×W} -> R  (Fig. 4).
class ScaleRegressor {
 public:
  ScaleRegressor(const RegressorConfig& cfg, Rng* rng);

  ScaleRegressor(const ScaleRegressor&) = delete;
  ScaleRegressor& operator=(const ScaleRegressor&) = delete;

  /// Predicts the normalized relative scale t̂ for a single feature map
  /// (features.n() must be 1).
  float predict(const Tensor& features);

  /// Post-training quantization over calibration feature maps (the
  /// detector's deep features for representative frames): observes each
  /// stream conv's and the FC head's input range, then freezes INT8 state.
  /// predict() runs INT8 whenever ADASCALE_GEMM=int8; see
  /// Detector::quantize for the contract.
  void quantize(const std::vector<Tensor>& calibration_features);

  /// True once quantize() has frozen INT8 state.
  bool quantized() const { return fc_.is_quantized(); }

  /// Sets this regressor's execution policy; see
  /// Detector::set_execution_policy.  The canonical mixed-precision
  /// serving config is an int8 detector policy plus an fp32 regressor
  /// policy — the scale decision is far more sensitive to quantization
  /// noise than the detections are.
  void set_execution_policy(const ExecutionPolicy& policy);

  /// The policy this regressor resolves kernels from.
  const ExecutionPolicy& execution_policy() const { return policy_; }

  /// The cached ahead-of-time plan for an (n, fh, fw) feature map under
  /// the current resolved backend; see Detector::plan_for.
  const ExecutionPlan& plan_for(int n, int fh, int fw);

  /// Number of plans currently cached (test seam).
  std::size_t cached_plan_count() const { return plans_->size(); }

  /// Aliases parameter storage and the plan cache to `src`'s; see
  /// Detector::share_storage_with.  Used by clone_regressor_shared.
  void share_storage_with(ScaleRegressor* src);

  /// Clone-side quantization transfer; see Detector::quantize_like.
  void quantize_like(ScaleRegressor* src);

  /// Per-layer calibration summaries (see Detector::quant_summaries).
  std::vector<QuantSummary> quant_summaries();

  /// One MSE training step on a single example (Eq. 4 term); returns the
  /// squared error.  Features are treated as constants (no grad flows back).
  float train_step(const Tensor& features, float target, Sgd* opt);

  /// Small MSE fine-tune over explicit (features, target) pairs — the
  /// quantization-aware alignment pass of the mixed-precision recipe
  /// (Harness::prepare_mixed_precision): distilling the regressor's own
  /// fp32-feature scale decisions onto INT8-produced feature maps cancels
  /// the systematic t̂ bias quantization noise induces, while the
  /// regressor itself keeps serving fp32.  Returns the final-epoch mean
  /// squared error.
  float fine_tune(const std::vector<Tensor>& features,
                  const std::vector<float>& targets, int epochs = 8,
                  float lr = 1e-4f);

  std::vector<Param*> parameters();

  const RegressorConfig& config() const { return cfg_; }

  /// Wall-clock of the last predict() call, for the overhead analysis
  /// (paper: "incurs only 2 ms, 3% of R-FCN runtime").
  double last_predict_ms() const { return last_predict_ms_; }

 private:
  /// One conv→ReLU→GAP stream; the ReLU is fused into the conv's GEMM
  /// write-out (bit-identical, one less pass per prediction).
  struct Stream {
    std::unique_ptr<Conv2dLayer> conv;  ///< fuse_relu = true
    GlobalAvgPoolLayer gap;
    Tensor conv_out, pooled;
  };

  /// Forward through streams; fills pooled concat vector.
  void forward(const Tensor& features);

  void invalidate_plans() { plans_->clear(); }

  RegressorConfig cfg_;
  std::vector<Stream> streams_;
  LinearLayer fc_;
  ExecutionPolicy policy_;  ///< unpinned by default (env-following)
  bool use_plans_ = true;   ///< off during training/calibration forwards
  /// Plans keyed by (n, fh, fw, resolved backend); shared with
  /// weight-aliased clones.  See Detector.
  std::shared_ptr<PlanCache> plans_ = std::make_shared<PlanCache>();
  Tensor concat_;   ///< pooled streams, (N, streams*stream_channels, 1, 1)
  Tensor fc_out_;   ///< (N,1,1,1)
  double last_predict_ms_ = 0.0;
};

/// Deep-copies a scale regressor (same reason as clone_detector: per-predict
/// scratch state makes instances single-user).
std::unique_ptr<ScaleRegressor> clone_regressor(ScaleRegressor* src);

/// Clones a regressor with parameter storage and plan cache aliased to
/// `src`'s; see clone_detector_shared.  Sharers must not train.
std::unique_ptr<ScaleRegressor> clone_regressor_shared(ScaleRegressor* src);

}  // namespace ada
