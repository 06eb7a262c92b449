// Adversary interface for all protocol drivers.
//
// The paper's adversary is adaptive (corrupts anyone, any time, up to a
// (1/3 - eps) fraction), rushing (moves after seeing good traffic each
// round), malicious (arbitrary deviation, collusion, flooding) and chooses
// every processor's input bit. This base class carries only the start
// hook; every other power is a capability interface that the protocol
// using it defines (VoteRusher in aeba/ for the rushing vote step,
// TournamentObserver / ShareConduct / ArrayChooser in core/, A2EAttacker
// in core/a2e.h). Drivers probe for them with dynamic_cast, so one
// strategy object can attack several protocols; concrete strategies live
// in src/adversary.
#pragma once

#include <vector>

#include "net/network.h"

namespace ba {

class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Chance to choose the initial corrupt set and inspect parameters.
  /// Called once before round 0. Default: corrupt nobody.
  virtual void on_start(Network& net) { (void)net; }
};

/// Corrupts a fixed, uniformly random set of processors at start and then
/// stays silent. The weakest adversary; used as a control in experiments.
class PassiveStaticAdversary : public Adversary {
 public:
  /// Corrupt exactly `count` processors chosen by ids.front()..; the caller
  /// supplies the id set so selection randomness stays with the experiment.
  explicit PassiveStaticAdversary(std::vector<ProcId> ids)
      : ids_(std::move(ids)) {}

  void on_start(Network& net) override {
    for (ProcId p : ids_) net.corrupt(p);
  }

 private:
  std::vector<ProcId> ids_;
};

}  // namespace ba
