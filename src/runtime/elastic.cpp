#include "runtime/elastic.hpp"

#include <algorithm>
#include <string>

namespace pangulu::runtime {

std::vector<ElasticPlan::Step> ElasticPlan::steps() const {
  std::vector<Step> out;
  out.reserve(adds.size() + drains.size());
  for (const Event& e : adds) out.push_back({e.at_commit, e.rank, true});
  for (const Event& e : drains) out.push_back({e.at_commit, e.rank, false});
  std::stable_sort(out.begin(), out.end(), [](const Step& a, const Step& b) {
    if (a.at_commit != b.at_commit) return a.at_commit < b.at_commit;
    return a.is_add && !b.is_add;
  });
  return out;
}

Status ElasticPlan::validate(rank_t n_ranks) const {
  if (n_ranks <= 0)
    return Status::invalid_argument("elastic plan: n_ranks must be positive");
  if (min_ranks < 1 || min_ranks > n_ranks)
    return Status::invalid_argument(
        "elastic plan: min_ranks " + std::to_string(min_ranks) +
        " outside [1, " + std::to_string(n_ranks) + "]");
  const std::vector<Step> order = steps();
  for (const Step& s : order) {
    const std::string what =
        std::string("elastic plan: ") + (s.is_add ? "add" : "drain");
    if (s.rank < 0 || s.rank >= n_ranks)
      return Status::invalid_argument(what + " rank " +
                                      std::to_string(s.rank) + " out of range");
    if (s.at_commit < 0)
      return Status::invalid_argument(what + " at_commit must be >= 0");
  }

  // Replay the plan against the provisional active set and check every
  // transition. Starting state: initially_active (first-event-is-add ranks
  // begin idle).
  std::vector<char> active = initially_active(n_ranks);
  rank_t live = 0;
  for (char a : active) live += a ? 1 : 0;
  for (const Step& s : order) {
    const std::size_t r = static_cast<std::size_t>(s.rank);
    if (s.is_add) {
      if (active[r])
        return Status::invalid_argument(
            "elastic plan: add of already-active rank " +
            std::to_string(s.rank) + " at commit " +
            std::to_string(s.at_commit));
      active[r] = 1;
      ++live;
    } else {
      if (!active[r])
        return Status::invalid_argument(
            "elastic plan: drain of inactive rank " + std::to_string(s.rank) +
            " at commit " + std::to_string(s.at_commit));
      if (live - 1 < min_ranks)
        return Status::resource_exhausted(
            "elastic plan: drain of rank " + std::to_string(s.rank) +
            " at commit " + std::to_string(s.at_commit) + " would leave " +
            std::to_string(live - 1) + " live ranks, below min_ranks " +
            std::to_string(min_ranks) + "; load shed");
      active[r] = 0;
      --live;
    }
  }
  return Status::ok();
}

std::vector<char> ElasticPlan::initially_active(rank_t n_ranks) const {
  // A rank starts inactive iff its first step in firing order is an add.
  std::vector<char> active(static_cast<std::size_t>(n_ranks), 1);
  std::vector<char> seen(static_cast<std::size_t>(n_ranks), 0);
  for (const Step& s : steps()) {
    if (s.rank < 0 || s.rank >= n_ranks) continue;
    const auto r = static_cast<std::size_t>(s.rank);
    if (!seen[r]) active[r] = s.is_add ? 0 : 1;
    seen[r] = 1;
  }
  return active;
}

}  // namespace pangulu::runtime
