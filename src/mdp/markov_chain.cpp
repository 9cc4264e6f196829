#include "mdp/markov_chain.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "support/check.hpp"

namespace mdp {

void validate_policy(const Mdp& mdp, const Policy& policy) {
  SM_REQUIRE(policy.size() == mdp.num_states(),
             "policy size ", policy.size(), " != number of states ",
             mdp.num_states());
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    SM_REQUIRE(policy[s] >= mdp.action_begin(s) && policy[s] < mdp.action_end(s),
               "policy assigns state ", s, " a foreign action ", policy[s]);
  }
}

namespace {

template <typename SuccessorsFn>
std::vector<bool> bfs(StateId num_states, StateId from, SuccessorsFn&& succ) {
  std::vector<bool> seen(num_states, false);
  std::queue<StateId> frontier;
  seen[from] = true;
  frontier.push(from);
  while (!frontier.empty()) {
    const StateId s = frontier.front();
    frontier.pop();
    succ(s, [&](StateId t) {
      if (!seen[t]) {
        seen[t] = true;
        frontier.push(t);
      }
    });
  }
  return seen;
}

}  // namespace

std::vector<bool> reachable_states(const Mdp& mdp, StateId from) {
  SM_REQUIRE(from < mdp.num_states(), "state out of range");
  return bfs(mdp.num_states(), from, [&](StateId s, auto&& visit) {
    for (ActionId a = mdp.action_begin(s); a < mdp.action_end(s); ++a) {
      for (const Transition& t : mdp.transitions(a)) visit(t.target);
    }
  });
}

std::vector<bool> reachable_states(const Mdp& mdp, const Policy& policy,
                                   StateId from) {
  SM_REQUIRE(from < mdp.num_states(), "state out of range");
  validate_policy(mdp, policy);
  return bfs(mdp.num_states(), from, [&](StateId s, auto&& visit) {
    for (const Transition& t : mdp.transitions(policy[s])) visit(t.target);
  });
}

namespace {

/// The closed class of the chain induced by `policy` that the initial
/// state reaches, as its states in ascending order. Tarjan's algorithm
/// over the states reachable from the initial state: a strongly connected
/// component is closed when no edge leaves it, which the search learns as
/// it goes — an edge to a visited state that is no longer on the stack,
/// or to a child that completed its own component, leaves. Throws
/// support::InvalidArgument if the initial state reaches more than one
/// closed class (the chain is not unichain).
std::vector<StateId> closed_class(const Mdp& mdp, const Policy& policy) {
  constexpr StateId kUnvisited = kInvalidState;
  constexpr std::uint8_t kOnStack = 1, kLeaves = 2, kClosed = 4;
  const StateId n = mdp.num_states();
  std::vector<StateId> order(n, kUnvisited);  // DFS discovery index
  std::vector<StateId> low(n, 0);
  std::vector<std::uint8_t> flags(n, 0);
  std::vector<StateId> stack;
  struct Frame {
    StateId state;
    std::uint32_t explored;  // edges of policy[state] explored so far
  };
  std::vector<Frame> calls;
  StateId discovered = 0;
  int closed_classes = 0;

  const auto visit = [&](StateId s) {
    order[s] = low[s] = discovered++;
    flags[s] |= kOnStack;
    stack.push_back(s);
    calls.push_back({s, 0});
  };
  visit(mdp.initial_state());
  while (!calls.empty()) {
    Frame& frame = calls.back();
    const StateId s = frame.state;
    const auto edges = mdp.transitions(policy[s]);
    if (frame.explored < edges.size()) {
      const StateId t = edges[frame.explored++].target;
      if (order[t] == kUnvisited) {
        visit(t);  // invalidates `frame`
      } else if (flags[t] & kOnStack) {
        low[s] = std::min(low[s], order[t]);
      } else {
        flags[s] |= kLeaves;
      }
      continue;
    }
    calls.pop_back();
    if (low[s] == order[s]) {  // s roots a component: the stack from s up
      auto root = stack.end();
      bool leaves = false;
      do {
        --root;
        leaves |= (flags[*root] & kLeaves) != 0;
      } while (*root != s);
      if (!leaves) ++closed_classes;
      for (auto it = root; it != stack.end(); ++it) {
        flags[*it] = leaves ? kLeaves : kClosed;
      }
      stack.erase(root, stack.end());
    }
    if (!calls.empty()) {  // hand the child's result to its parent
      const StateId parent = calls.back().state;
      if (flags[s] & kOnStack) {
        low[parent] = std::min(low[parent], low[s]);
      } else {
        flags[parent] |= kLeaves;
      }
    }
  }
  SM_REQUIRE(closed_classes == 1, "the policy chain reaches ",
             closed_classes,
             " closed classes from the initial state; the stationary "
             "distribution needs exactly one (a unichain policy)");

  std::vector<StateId> members;
  for (StateId s = 0; s < n; ++s) {
    if (flags[s] & kClosed) members.push_back(s);
  }
  return members;
}

}  // namespace

StationaryResult stationary_distribution(const Mdp& mdp, const Policy& policy,
                                         const StationaryOptions& options) {
  validate_policy(mdp, policy);
  const StateId n = mdp.num_states();
  const std::vector<StateId> members = closed_class(mdp, policy);
  const auto m = static_cast<StateId>(members.size());

  StationaryResult result;
  result.closed_states = m;
  result.distribution.assign(n, 0.0);  // transient states stay exactly 0
  if (m == 1) {  // an absorbing state: μ = δ, nothing to divide
    result.distribution[members[0]] = 1.0;
    result.converged = true;
    return result;
  }

  // The class's in-edges, over its states renumbered 0..m−1 in ascending
  // order. The class is closed, so every edge out of a member lands on a
  // member. Self-loops go to `stay`; edge weights are pre-divided by the
  // target's 1 − P(t,t), which is positive in a class of ≥ 2 states.
  std::vector<StateId> local(n, kInvalidState);
  for (StateId i = 0; i < m; ++i) local[members[i]] = i;
  std::vector<std::uint32_t> in_begin(static_cast<std::size_t>(m) + 1, 0);
  std::vector<double> stay(m, 0.0);
  for (StateId i = 0; i < m; ++i) {
    for (const Transition& t : mdp.transitions(policy[members[i]])) {
      const StateId j = local[t.target];
      if (j == i) {
        stay[i] += t.prob;
      } else {
        ++in_begin[j + 1];
      }
    }
  }
  for (StateId j = 0; j < m; ++j) in_begin[j + 1] += in_begin[j];
  std::vector<StateId> in_source(in_begin[m]);
  std::vector<double> in_weight(in_begin[m]);
  {
    std::vector<std::uint32_t> fill(in_begin.begin(), in_begin.end() - 1);
    for (StateId i = 0; i < m; ++i) {
      for (const Transition& t : mdp.transitions(policy[members[i]])) {
        const StateId j = local[t.target];
        if (j == i) continue;
        const std::uint32_t k = fill[j]++;
        in_source[k] = i;
        in_weight[k] = t.prob / (1.0 - stay[j]);
      }
    }
  }
  std::vector<double> mu(m, 1.0 / m);
  // Σ_{s≠t} μ(s)·P(s,t) / (1 − P(t,t)): the balance equation of t solved
  // for μ(t). The sum is compensated (Kahan): a plain sum over a state
  // with d in-edges rounds by ~√d·1e-16 in a pattern that changes with
  // every last-bit change of its inputs, so a hub state would keep the
  // sweep-to-sweep change above tol forever.
  const auto balance = [&](StateId t) {
    double x = 0.0, carry = 0.0;
    for (std::uint32_t k = in_begin[t]; k < in_begin[t + 1]; ++k) {
      const double y = mu[in_source[k]] * in_weight[k] - carry;
      const double next = x + y;
      carry = (next - x) - y;
      x = next;
    }
    return x;
  };

  // Each sweep solves every balance equation for its own state, in
  // ascending order, reading the sweep's fresh values, then renormalizes.
  // The stop test is relative to the sweep's own mass, not to 1: |1 − Σx|
  // carries the rounding of a sum over the whole class, which grows with
  // the class, while ‖x − μ‖₁ / Σx bottoms out near 1e-16 at any size.
  for (int sweep = 1; sweep <= options.max_iterations; ++sweep) {
    double change = 0.0, total = 0.0;
    for (StateId t = 0; t < m; ++t) {
      const double x = balance(t);
      change += std::fabs(x - mu[t]);
      total += x;
      mu[t] = x;
    }
    SM_ENSURE(total > 0.0, "stationary mass vanished");
    for (double& x : mu) x /= total;
    result.iterations = sweep;
    if (change < options.tol * total) {
      result.converged = true;
      break;
    }
  }

  // (μP − μ)(t) = (1 − P(t,t))·(balance(t) − μ(t)).
  for (StateId t = 0; t < m; ++t) {
    result.residual += (1.0 - stay[t]) * std::fabs(balance(t) - mu[t]);
    result.distribution[members[t]] = mu[t];
  }
  return result;
}

double policy_gain(const Mdp& mdp, const Policy& policy,
                   const std::vector<double>& action_reward,
                   const std::vector<double>& stationary) {
  validate_policy(mdp, policy);
  SM_REQUIRE(action_reward.size() == mdp.num_actions(),
             "reward vector size mismatch");
  SM_REQUIRE(stationary.size() == mdp.num_states(),
             "stationary vector size mismatch");
  double gain = 0.0;
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    gain += stationary[s] * action_reward[policy[s]];
  }
  return gain;
}

}  // namespace mdp
