#include "solver/session.hpp"

#include <algorithm>
#include <chrono>

namespace pangulu::solver {

namespace {

/// The two cooperative-stop codes: the request was shed, not broken, so
/// session state rolls back instead of degrading to not-ready.
bool is_shed_code(const Status& s) {
  return s.code() == StatusCode::kCancelled ||
         s.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

std::uint64_t pattern_fingerprint(const Csc& a) {
  // FNV-1a over the order and the pattern arrays, byte for byte. Values are
  // deliberately excluded: the fingerprint answers "may refactorize() accept
  // this matrix", which is a pure pattern question.
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= kPrime;
    }
  };
  mix(static_cast<std::uint64_t>(a.n_rows()));
  mix(static_cast<std::uint64_t>(a.n_cols()));
  for (nnz_t p : a.col_ptr()) mix(static_cast<std::uint64_t>(p));
  for (index_t r : a.row_idx()) mix(static_cast<std::uint64_t>(r));
  return h;
}

Status Session::setup(const Csc& a, const Options& opts) {
  std::unique_lock lk(mu_);
  ready_ = false;
  Status s = solver_.factorize(a, opts);
  if (!s.is_ok()) return s;
  pattern_hash_ = pattern_fingerprint(a);
  pattern_nnz_ = a.nnz();
  ready_ = true;
  return Status::ok();
}

Status Session::resume_from(const std::string& path, const Options& base) {
  std::unique_lock lk(mu_);
  ready_ = false;
  Status s = solver_.resume_from(path, base);
  if (!s.is_ok()) return s;
  pattern_hash_ = pattern_fingerprint(solver_.matrix());
  pattern_nnz_ = solver_.matrix().nnz();
  ready_ = true;
  return Status::ok();
}

Status Session::refactorize(std::span<const value_t> values) {
  std::unique_lock lk(mu_);
  if (!ready_) return Status::failed_precondition("session: setup() first");
  if (values.size() != static_cast<std::size_t>(pattern_nnz_))
    return Status::failed_precondition(
        "session: " + std::to_string(values.size()) +
        " values do not match the analysed pattern's nnz (" +
        std::to_string(pattern_nnz_) + ")");
  Status s = solver_.refactorize_values(values);
  // A cancelled/deadline-shed refactorize rolled back to the previous
  // factors inside the solver; the session stays serviceable with them.
  if (!s.is_ok() && !is_shed_code(s)) ready_ = false;
  return s;
}

Status Session::refactorize(const Csc& a) {
  std::unique_lock lk(mu_);
  if (!ready_) return Status::failed_precondition("session: setup() first");
  if (pattern_fingerprint(a) != pattern_hash_)
    return Status::failed_precondition(
        "session: sparsity-pattern fingerprint mismatch — refactorize() "
        "requires the analysed pattern; run setup() for a new one");
  Status s = solver_.refactorize(a);
  if (!s.is_ok() && !is_shed_code(s)) ready_ = false;
  return s;
}

Status Session::solve(std::span<const value_t> b, std::span<value_t> x,
                      SolveStats* solve_stats) const {
  std::shared_lock lk(mu_);
  if (!ready_) return Status::failed_precondition("session: setup() first");
  return solver_.solve(b, x, solve_stats);
}

Status Session::solve_deadline(std::span<const value_t> b,
                               std::span<value_t> x, double deadline_seconds,
                               SolveStats* solve_stats) const {
  CancelToken token;
  token.set_wall_deadline_after(deadline_seconds);
  std::shared_lock lk(mu_);
  if (!ready_) return Status::failed_precondition("session: setup() first");
  return solver_.solve(b, x, solve_stats, &token);
}

Status Session::solve_multi(const Dense& b, Dense* x,
                            SolveStats* worst) const {
  std::shared_lock lk(mu_);
  if (!ready_) return Status::failed_precondition("session: setup() first");
  return solver_.solve_multi(b, x, worst);
}

Status Session::solve_transpose(std::span<const value_t> b,
                                std::span<value_t> x) const {
  std::shared_lock lk(mu_);
  if (!ready_) return Status::failed_precondition("session: setup() first");
  return solver_.solve_transpose(b, x);
}

Status Session::solve_multi_transpose(const Dense& b, Dense* x) const {
  std::shared_lock lk(mu_);
  if (!ready_) return Status::failed_precondition("session: setup() first");
  return solver_.solve_multi_transpose(b, x);
}

bool Session::ready() const {
  std::shared_lock lk(mu_);
  return ready_;
}

std::uint64_t Session::pattern_hash() const {
  std::shared_lock lk(mu_);
  return pattern_hash_;
}

FactorStats Session::stats() const {
  std::shared_lock lk(mu_);
  return solver_.stats();
}

std::size_t Session::footprint_bytes() const {
  std::shared_lock lk(mu_);
  if (!ready_) return 0;
  const FactorStats& st = solver_.stats();
  const auto nnz_lu = static_cast<std::size_t>(st.nnz_lu);
  const auto nnz_a = static_cast<std::size_t>(st.nnz_a);
  const auto n = static_cast<std::size_t>(st.n);
  std::size_t bytes = 0;
  // FP64 factor blocks: nnz_lu (value, row) pairs.
  bytes += nnz_lu * (sizeof(value_t) + sizeof(index_t));
  // FP32 storage adds the FP32 store: its own values and row indices (the
  // blocks are copies of factors()'s, narrowed).
  if (kernels::stores_fp32(solver_.options().precision))
    bytes += nnz_lu * (sizeof(float) + sizeof(index_t));
  // The original A, and refactorisation's map from each of its entries to a
  // factor slot (two 32-bit indices).
  bytes += nnz_a * (sizeof(value_t) + sizeof(index_t));
  bytes += nnz_a * 2 * sizeof(index_t);
  // Task graph, permutations/scalings, solve-plan arrays (order-ish each).
  bytes += st.n_tasks * sizeof(block::Task);
  bytes += 8 * n * sizeof(value_t);
  return bytes;
}

void SessionPool::Ticket::release() {
  if (pool_) {
    pool_->release_slot(bytes_);
    pool_ = nullptr;
    bytes_ = 0;
  }
}

Status SessionPool::admit(std::size_t bytes, Ticket* ticket) {
  return admit(bytes, ticket, nullptr);
}

Status SessionPool::admit(std::size_t bytes, Ticket* ticket,
                          const CancelToken* cancel) {
  if (!ticket) return Status::invalid_argument("session pool: null ticket");
  if (opts_.memory_budget_bytes > 0 && bytes > opts_.memory_budget_bytes)
    return Status::resource_exhausted(
        "session pool: request of " + std::to_string(bytes) +
        " bytes exceeds the pool budget (" +
        std::to_string(opts_.memory_budget_bytes) + ") and can never run");
  // Drop any slot the ticket still holds before blocking — re-admitting a
  // live ticket must not deadlock against its own reservation.
  ticket->release();

  using clock = std::chrono::steady_clock;
  const clock::time_point timeout =
      opts_.default_admit_timeout_seconds > 0
          ? clock::now() + std::chrono::duration_cast<clock::duration>(
                               std::chrono::duration<double>(
                                   opts_.default_admit_timeout_seconds))
          : clock::time_point::max();
  std::unique_lock lk(mu_);
  auto fits = [&] {
    if (opts_.max_concurrent > 0 && active_ >= opts_.max_concurrent)
      return false;
    if (opts_.memory_budget_bytes > 0 &&
        active_bytes_ + bytes > opts_.memory_budget_bytes)
      return false;
    return true;
  };
  // Park until the request fits. The token is checked before every wait,
  // so an expired or cancelled one fails at once; a token's waits are
  // capped at 50 ms (or its remaining deadline, if sooner) so a manual
  // cancel() is seen promptly. Without a token or a pool timeout this is
  // the historical wait-forever.
  while (!fits()) {
    if (cancel) {
      Status cs = cancel->check("session pool admission");
      if (!cs.is_ok()) return cs;
    }
    const clock::time_point now = clock::now();
    if (now >= timeout)
      return Status::deadline_exceeded(
          "session pool: admission wait exceeded the pool timeout (" +
          std::to_string(opts_.default_admit_timeout_seconds) + " s)");
    clock::time_point wake = timeout;
    if (cancel) {
      const double poll =
          std::min(cancel->wall_seconds_remaining(), 0.05);
      wake = std::min(wake, now + std::chrono::duration_cast<clock::duration>(
                                      std::chrono::duration<double>(poll)));
    }
    if (wake == clock::time_point::max()) {
      cv_.wait(lk);
    } else {
      cv_.wait_until(lk, wake);
    }
  }
  ++active_;
  active_bytes_ += bytes;
  peak_active_ = std::max(peak_active_, active_);
  peak_bytes_ = std::max(peak_bytes_, active_bytes_);
  ticket->pool_ = this;
  ticket->bytes_ = bytes;
  return Status::ok();
}

void SessionPool::release_slot(std::size_t bytes) {
  {
    std::lock_guard lk(mu_);
    --active_;
    active_bytes_ -= bytes;
  }
  cv_.notify_all();
}

int SessionPool::in_flight() const {
  std::lock_guard lk(mu_);
  return active_;
}

std::size_t SessionPool::bytes_in_flight() const {
  std::lock_guard lk(mu_);
  return active_bytes_;
}

int SessionPool::peak_in_flight() const {
  std::lock_guard lk(mu_);
  return peak_active_;
}

std::size_t SessionPool::peak_bytes() const {
  std::lock_guard lk(mu_);
  return peak_bytes_;
}

}  // namespace pangulu::solver
