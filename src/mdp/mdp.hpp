// Immutable sparse finite Markov decision process.
//
// Storage is CSR-like on two levels: states index a contiguous range of
// actions, and each action indexes a contiguous range of transitions.
// Models are constructed through mdp::MdpBuilder (builder.hpp), which
// validates stochasticity before freezing the model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mdp/types.hpp"

namespace mdp {

class MdpBuilder;

/// One outgoing probabilistic edge of an action.
struct Transition {
  StateId target = kInvalidState;
  double prob = 0.0;
  RewardCounts counts;
};

/// A finite MDP with per-transition finalization counters.
///
/// Invariants (established by MdpBuilder):
///  * every state has at least one action;
///  * every action has at least one transition;
///  * each action's transition probabilities sum to 1 (within 1e-9);
///  * all transition targets are valid states.
class Mdp {
 public:
  StateId num_states() const { return static_cast<StateId>(action_begin_.size() - 1); }
  ActionId num_actions() const { return static_cast<ActionId>(tr_begin_.size() - 1); }
  std::size_t num_transitions() const { return transitions_.size(); }
  StateId initial_state() const { return initial_; }

  /// Global indices of the actions available in `s`: [begin, end).
  ActionId action_begin(StateId s) const { return action_begin_[s]; }
  ActionId action_end(StateId s) const { return action_begin_[s + 1]; }
  std::uint32_t num_actions_of(StateId s) const {
    return action_end(s) - action_begin(s);
  }

  /// The state an action belongs to.
  StateId action_state(ActionId a) const { return action_state_[a]; }

  /// Model-specific opaque label attached to the action (e.g. an encoded
  /// selfish-mining action); purely for strategy readout.
  std::uint32_t action_label(ActionId a) const { return action_label_[a]; }

  /// The probabilistic successor distribution of an action.
  std::span<const Transition> transitions(ActionId a) const {
    return {transitions_.data() + tr_begin_[a],
            transitions_.data() + tr_begin_[a + 1]};
  }

  /// Flat CSR position of an action's transitions: [begin, end) into the
  /// global transition order (the order transitions(a) spans walk). Used
  /// by structure-of-arrays views (mdp::BellmanKernel) that re-index the
  /// transition data without the 24-byte AoS stride.
  std::uint32_t transition_begin(ActionId a) const { return tr_begin_[a]; }
  std::uint32_t transition_end(ActionId a) const { return tr_begin_[a + 1]; }

  /// Expected finalized-block counters of an action:
  /// Σ_t prob(t)·counts(t), precomputed at build time.
  double expected_adversary(ActionId a) const { return exp_adv_[a]; }
  double expected_honest(ActionId a) const { return exp_hon_[a]; }

  /// Expected immediate reward of an action under r_β.
  double beta_reward(ActionId a, double beta) const {
    return exp_adv_[a] - beta * (exp_adv_[a] + exp_hon_[a]);
  }

  /// Expected immediate rewards of all actions under r_β, in action order.
  std::vector<double> beta_rewards(double beta) const;

  /// Same, written into `out` (resized to num_actions). Lets callers that
  /// solve for many β values (Algorithm 1's search) reuse one buffer
  /// instead of allocating a fresh vector per step.
  void beta_rewards_into(double beta, std::vector<double>& out) const;

  /// Approximate heap footprint, for state-space reporting.
  std::size_t memory_bytes() const;

 private:
  friend class MdpBuilder;
  Mdp() = default;

  std::vector<ActionId> action_begin_;      // size: num_states + 1
  std::vector<StateId> action_state_;       // size: num_actions
  std::vector<std::uint32_t> action_label_; // size: num_actions
  std::vector<std::uint32_t> tr_begin_;     // size: num_actions + 1
  std::vector<Transition> transitions_;
  std::vector<double> exp_adv_;             // size: num_actions
  std::vector<double> exp_hon_;             // size: num_actions
  StateId initial_ = 0;
};

}  // namespace mdp
