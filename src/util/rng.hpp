// Deterministic random-number facade.
//
// Every stochastic component in blackwatch draws through an Rng instance that
// is seeded explicitly, so a scenario run is exactly reproducible from its
// seed. Sub-streams are derived with `fork(tag)` (splitmix-style) so that
// adding draws to one generator never perturbs another.
#pragma once

#include <cstdint>
#include <mutex>
#include <random>
#include <span>
#include <vector>

namespace bw::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derive an independent child stream. Identical (seed, tag) pairs always
  /// yield the identical stream.
  [[nodiscard]] Rng fork(std::uint64_t tag) const {
    return Rng(derive_seed(seed_, tag));
  }

  /// The seed a fork(tag) child would use. Exposed so content-keyed
  /// substreams (e.g. per-burst sampling in sharded generation) can chain
  /// derivations without constructing intermediate engines.
  [[nodiscard]] static std::uint64_t derive_seed(std::uint64_t seed,
                                                 std::uint64_t tag) noexcept {
    // splitmix64 finalizer over (seed ^ rotated tag)
    std::uint64_t z =
        seed ^ (tag + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Binomial(n, p) — used by the IPFIX sampler to thin packet bursts.
  std::int64_t binomial(std::int64_t n, double p) {
    if (n <= 0 || p <= 0.0) return 0;
    if (p >= 1.0) return n;
    const double p12 = p <= 0.5 ? p : 1.0 - p;
    const auto lock = lgamma_lock(static_cast<double>(n) * p12 >= 8);
    return std::binomial_distribution<std::int64_t>(n, p)(engine_);
  }

  std::int64_t poisson(double mean) {
    if (mean <= 0.0) return 0;
    const auto lock = lgamma_lock(mean >= 12);
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
  }

  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  double normal(double mean, double sd) {
    return std::normal_distribution<double>(mean, sd)(engine_);
  }

  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Pareto draw with scale x_m and shape alpha (heavy-tailed volumes).
  double pareto(double x_m, double alpha) {
    const double u = uniform(std::numeric_limits<double>::min(), 1.0);
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Pick an index in [0, weights.size()) with probability proportional to
  /// the weight. Empty or all-zero weights pick index 0.
  std::size_t weighted_index(std::span<const double> weights);

  /// Pick a uniformly random element index of a non-empty container size.
  std::size_t index(std::size_t size) {
    return size <= 1 ? 0
                     : static_cast<std::size_t>(
                           uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  /// Sample k distinct indices out of [0, n) (k clamped to n).
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  /// libstdc++'s binomial and poisson distributions call std::lgamma, which
  /// writes libm's process-wide `signgam`, and generator shard threads draw
  /// from them concurrently. Those draws hold one process-wide lock, taken
  /// only where libstdc++ switches to its lgamma-based rejection samplers
  /// (binomial n*min(p,1-p) >= 8, poisson mean >= 12): the cheap small-mean
  /// draws that dominate sampling stay uncontended. The lock orders only the
  /// signgam writes; each Rng's engine is its own, so every drawn value is
  /// the same as without it.
  [[nodiscard]] static std::unique_lock<std::mutex> lgamma_lock(bool needed) {
    static std::mutex mutex;
    return needed ? std::unique_lock<std::mutex>(mutex)
                  : std::unique_lock<std::mutex>();
  }

  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace bw::util
