// CONGEST messages with explicit bit accounting.
//
// Every message carries a small type tag plus typed fields; each field
// declares the number of bits it occupies on the wire. The Network engine
// sums declared bits per directed edge per round and enforces the CONGEST
// bandwidth cap, which is how we validate the paper's congestion claims
// (Sec. 2.4) empirically rather than by trusting the implementation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace distapx::sim {

/// A single message: type tag + fields with declared bit widths.
///
/// Sized for CONGEST, where a message is a few O(log n)-bit words: the
/// first kInlineFields fields live inline, and the whole message is 40
/// bytes, so staging and delivering it is a small fixed-size copy. Fields
/// beyond those spill to a heap vector that is allocated only when a wider
/// message is built (LOCAL-model programs, the naive line-graph ablation,
/// the bandwidth tests); copies of such a message copy the spill, so every
/// copy owns its fields.
class Message {
 public:
  /// Cost charged for the type tag itself.
  static constexpr int kTypeBits = 4;
  /// Fields held without heap allocation.
  static constexpr std::size_t kInlineFields = 2;

  Message() = default;
  explicit Message(std::uint32_t type) : type_(type) {
    DISTAPX_ASSERT(type < (1u << kTypeBits));
  }

  Message(const Message& other)
      : type_(other.type_),
        bits_(other.bits_),
        count_(other.count_),
        inline_(other.inline_),
        spill_(other.spill_ ? std::make_unique<std::vector<std::uint64_t>>(
                                  *other.spill_)
                            : nullptr) {}
  Message& operator=(const Message& other) {
    if (this != &other) *this = Message(other);
    return *this;
  }
  /// A moved-from message is left empty (no fields, no field bits).
  Message(Message&& other) noexcept
      : type_(other.type_),
        bits_(std::exchange(other.bits_, 0)),
        count_(std::exchange(other.count_, 0)),
        inline_(other.inline_),
        spill_(std::move(other.spill_)) {}
  Message& operator=(Message&& other) noexcept {
    type_ = other.type_;
    bits_ = std::exchange(other.bits_, 0);
    count_ = std::exchange(other.count_, 0);
    inline_ = other.inline_;
    spill_ = std::move(other.spill_);
    return *this;
  }
  ~Message() = default;

  [[nodiscard]] std::uint32_t type() const noexcept { return type_; }

  /// Appends an unsigned field. `bits` is its declared wire width; the
  /// value must fit. Returns *this for chaining.
  Message& push(std::uint64_t value, int bits) {
    DISTAPX_ENSURE_MSG(bits >= 1 && bits <= 64, "field width " << bits);
    DISTAPX_ENSURE_MSG(bits == 64 || value < (std::uint64_t{1} << bits),
                       "value " << value << " does not fit in " << bits
                                << " bits");
    store(value);
    bits_ += bits;
    return *this;
  }

  /// Appends a double field (used by the Appendix B.3 attenuation
  /// machinery). Charged `bits` on the wire; the paper bounds the required
  /// precision by O(log Δ / ε²) bits, which callers declare explicitly.
  Message& push_real(double value, int bits) {
    DISTAPX_ENSURE(bits >= 1 && bits <= 64);
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t raw;
    __builtin_memcpy(&raw, &value, sizeof(raw));
    store(raw);
    bits_ += bits;
    return *this;
  }

  [[nodiscard]] std::uint64_t field(std::size_t i) const {
    DISTAPX_ASSERT(i < count_);
    return i < kInlineFields ? inline_[i] : (*spill_)[i - kInlineFields];
  }

  [[nodiscard]] double field_real(std::size_t i) const {
    double v;
    const std::uint64_t raw = field(i);
    __builtin_memcpy(&v, &raw, sizeof(v));
    return v;
  }

  [[nodiscard]] std::size_t num_fields() const noexcept { return count_; }

  /// Total declared wire bits including the type tag.
  [[nodiscard]] int total_bits() const noexcept { return kTypeBits + bits_; }

 private:
  void store(std::uint64_t value) {
    if (count_ < kInlineFields) {
      inline_[count_] = value;
    } else {
      if (!spill_) spill_ = std::make_unique<std::vector<std::uint64_t>>();
      spill_->push_back(value);
    }
    ++count_;
  }

  std::uint32_t type_ = 0;
  int bits_ = 0;
  std::uint32_t count_ = 0;
  std::array<std::uint64_t, kInlineFields> inline_{};
  std::unique_ptr<std::vector<std::uint64_t>> spill_;  // fields past inline_
};

static_assert(sizeof(Message) <= 40, "Message is staged and copied per send");

/// A message as seen by its receiver: which local port it arrived on.
struct Delivery {
  std::uint32_t port;
  Message msg;
};

static_assert(sizeof(Delivery) <= 48, "Delivery fills every inbox");

}  // namespace distapx::sim
