// Fidge-Mattern vector clocks.
//
// VC(e)[j] = number of events on process j that happened-before-or-equal e.
// Happened-before between events reduces to componentwise comparison:
//   e -> f  iff  VC(e) != VC(f) and VC(e)[i] <= VC(f)[i] for all i.
// For events we use the cheaper process-local test (see Computation).
//
// Two representations share the comparison algebra:
//   VClock      owns its components (the builder's and the reverse-clock
//               pass's working clocks, tests).
//   VClockView  a non-owning {pointer, size} over a row of Computation's
//               contiguous stride-n clock arena. leq/merge over the flat
//               storage compile to branch-light loops the optimizer can
//               vectorize, and reading a clock allocates nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hbct {

namespace vclock_detail {

/// Fused single pass: computes "a <= b componentwise" and "a != b" together,
/// so before() no longer pays a leq scan plus a full vector compare.
inline bool leq_and_ne(const std::int32_t* a, const std::int32_t* b,
                       std::size_t n, bool* ne) {
  bool strict = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] > b[i]) return false;
    strict |= a[i] < b[i];
  }
  *ne = strict;
  return true;
}

inline bool leq(const std::int32_t* a, const std::int32_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] > b[i]) return false;
  return true;
}

std::string to_string(const std::int32_t* c, std::size_t n);

}  // namespace vclock_detail

/// Non-owning view of a vector clock stored in a flat arena. Cheap to copy;
/// valid only while the owning storage is alive and unmoved.
class VClockView {
 public:
  VClockView() = default;
  VClockView(const std::int32_t* p, std::size_t n) : p_(p), n_(n) {}

  std::size_t size() const { return n_; }
  std::int32_t operator[](std::size_t i) const { return p_[i]; }
  const std::int32_t* data() const { return p_; }

  bool leq(VClockView o) const { return vclock_detail::leq(p_, o.p_, n_); }

  /// Strictly happened-before, in one fused pass.
  bool before(VClockView o) const {
    bool ne = false;
    return vclock_detail::leq_and_ne(p_, o.p_, n_, &ne) && ne;
  }

  bool concurrent(VClockView o) const { return !leq(o) && !o.leq(*this); }

  /// Materializes an owned copy of the components.
  std::vector<std::int32_t> raw() const {
    return std::vector<std::int32_t>(p_, p_ + n_);
  }

  std::string to_string() const { return vclock_detail::to_string(p_, n_); }

  friend bool operator==(VClockView a, VClockView b) {
    if (a.n_ != b.n_) return false;
    for (std::size_t i = 0; i < a.n_; ++i)
      if (a.p_[i] != b.p_[i]) return false;
    return true;
  }

 private:
  const std::int32_t* p_ = nullptr;
  std::size_t n_ = 0;
};

class VClock {
 public:
  VClock() = default;
  explicit VClock(std::size_t n) : c_(n, 0) {}
  explicit VClock(std::vector<std::int32_t> c) : c_(std::move(c)) {}

  std::size_t size() const { return c_.size(); }
  std::int32_t operator[](std::size_t i) const { return c_[i]; }
  std::int32_t& operator[](std::size_t i) { return c_[i]; }

  /// Componentwise max with `o` (message-receive merge).
  void merge(const VClock& o);
  void merge(VClockView o);

  /// this <= o componentwise.
  bool leq(const VClock& o) const;

  /// Strictly happened-before: one fused leq-and-not-equal pass.
  bool before(const VClock& o) const {
    bool ne = false;
    return c_.size() == o.c_.size() &&
           vclock_detail::leq_and_ne(c_.data(), o.c_.data(), c_.size(), &ne) &&
           ne;
  }

  /// Neither clock dominates: the events are concurrent.
  bool concurrent(const VClock& o) const { return !leq(o) && !o.leq(*this); }

  const std::vector<std::int32_t>& raw() const { return c_; }

  VClockView view() const { return VClockView(c_.data(), c_.size()); }

  std::string to_string() const;

  friend bool operator==(const VClock&, const VClock&) = default;

 private:
  std::vector<std::int32_t> c_;
};

}  // namespace hbct
