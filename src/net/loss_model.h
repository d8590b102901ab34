// Packet-loss models applied at link egress.
//
// The evaluation uses both i.i.d. Bernoulli loss (the controlled FEC sweep,
// §6.2) and bursty Gilbert–Elliott loss (mobile scenarios), plus a
// trace-driven variant whose instantaneous rate follows a ValueTrace.
#pragma once

#include <memory>

#include "net/trace.h"
#include "util/random.h"
#include "util/time.h"

namespace converge {

class LossModel {
 public:
  virtual ~LossModel() = default;
  // Returns true if the packet leaving at `now` should be dropped.
  virtual bool ShouldDrop(Timestamp now, Random& rng) = 0;
  // Current average loss fraction (for introspection/tests).
  virtual double AverageRate(Timestamp now) const = 0;
  // Every link built from one PathSpec (each mesh leg, each star edge, each
  // copy of a config run in parallel) gets the spec's model. A model that
  // keeps state between packets returns a fresh copy here, which the link
  // owns; a stateless model returns null and is shared.
  virtual std::shared_ptr<LossModel> PerLinkCopy() const { return nullptr; }
};

// No loss.
class NoLoss final : public LossModel {
 public:
  bool ShouldDrop(Timestamp, Random&) override { return false; }
  double AverageRate(Timestamp) const override { return 0.0; }
};

// Independent per-packet loss with fixed probability.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double rate) : rate_(rate) {}
  bool ShouldDrop(Timestamp, Random& rng) override {
    return rng.Bernoulli(rate_);
  }
  double AverageRate(Timestamp) const override { return rate_; }

 private:
  double rate_;
};

// Two-state Gilbert–Elliott model: Good state with low loss, Bad state with
// high loss; geometric sojourn times via per-packet transition probabilities.
class GilbertElliottLoss final : public LossModel {
 public:
  struct Config {
    double p_good_to_bad = 0.002;
    double p_bad_to_good = 0.10;
    double loss_good = 0.001;
    double loss_bad = 0.30;
  };
  explicit GilbertElliottLoss(const Config& config) : config_(config) {}

  bool ShouldDrop(Timestamp, Random& rng) override;
  double AverageRate(Timestamp) const override;
  // The burst state is per link: each copy starts in the Good state.
  std::shared_ptr<LossModel> PerLinkCopy() const override {
    return std::make_shared<GilbertElliottLoss>(config_);
  }

 private:
  Config config_;
  bool bad_ = false;
};

// Loss probability follows a trace (fraction in [0,1]).
class TraceLoss final : public LossModel {
 public:
  explicit TraceLoss(ValueTrace trace) : trace_(std::move(trace)) {}
  bool ShouldDrop(Timestamp now, Random& rng) override {
    return rng.Bernoulli(trace_.ValueAt(now));
  }
  double AverageRate(Timestamp now) const override {
    return trace_.ValueAt(now);
  }

 private:
  ValueTrace trace_;
};

}  // namespace converge
