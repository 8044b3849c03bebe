// PerParty<T>: one value per party, stored once while every party holds
// the same value.
//
// On a channel every party hears alike, Algorithm 1 leaves all n parties
// with one transcript and one owner map (Section D.1, Theorem D.1).  A
// PerParty holds such a value once, and n values only after the parties
// split: a write to one party's value (Split(), or the non-const
// operator[]) first copies the shared value to every party.  Reads see n
// values in party order however they are stored, so code that reads party
// by party does not depend on the storage.  Code that acts on every party
// at once (truncate, append, fill) acts on stored(): once on a value held
// once.  Rejoin() holds a split value once again when every party's copy
// is equal again, as after a rewind to a prefix the parties committed
// alike.
//
// Reading through a non-const PerParty's operator[] splits it: read
// through a const reference.
#ifndef NOISYBEEPS_UTIL_PER_PARTY_H_
#define NOISYBEEPS_UTIL_PER_PARTY_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace noisybeeps {

template <typename T>
class PerParty {
 public:
  using value_type = T;

  // Party i's value is values[i * stride]: stride 0 while held once.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const T& operator*() const { return values_[party_ * stride_]; }
    const T* operator->() const { return &**this; }
    const_iterator& operator++() {
      ++party_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++party_;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.party_ == b.party_;
    }

   private:
    friend class PerParty;
    const_iterator(const T* values, std::size_t stride, std::size_t party)
        : values_(values), stride_(stride), party_(party) {}

    const T* values_ = nullptr;
    std::size_t stride_ = 0;
    std::size_t party_ = 0;
  };
  using iterator = const_iterator;

  PerParty() = default;
  // `num_parties` parties that each hold `value`, stored once.
  explicit PerParty(std::size_t num_parties, T value = T()) {
    assign(num_parties, std::move(value));
  }
  // One value per party, stored once when all are equal.
  PerParty(std::vector<T> values)
      : num_parties_(values.size()), values_(std::move(values)) {
    Rejoin();
  }
  PerParty(std::initializer_list<T> values)
      : PerParty(std::vector<T>(values)) {}

  // Every party's value, in party order.
  operator std::vector<T>() const {
    return std::vector<T>(begin(), end());
  }

  [[nodiscard]] std::size_t size() const { return num_parties_; }
  [[nodiscard]] bool empty() const { return num_parties_ == 0; }
  [[nodiscard]] const T& operator[](std::size_t party) const {
    return values_[party * stride()];
  }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] const_iterator begin() const {
    return {values_.data(), stride(), 0};
  }
  [[nodiscard]] const_iterator end() const {
    return {values_.data(), stride(), num_parties_};
  }

  // The values as stored: one while every party holds it, one per party
  // after a split (none for zero parties).
  [[nodiscard]] std::span<const T> stored() const { return values_; }
  [[nodiscard]] std::span<T> stored() { return values_; }

  // Party `party`'s value, for writing: splits a value held once.
  [[nodiscard]] T& operator[](std::size_t party) { return Split()[party]; }

  // Gives every party its own copy of a value held once, and returns the
  // n values in party order for writing.
  std::span<T> Split() {
    if (values_.size() < num_parties_) {
      values_.reserve(num_parties_);
      while (values_.size() < num_parties_) values_.push_back(values_.front());
    }
    return values_;
  }

  // True when every party holds the same value: one stored value, or n
  // equal copies.
  [[nodiscard]] bool AllEqual() const {
    return std::all_of(values_.begin(), values_.end(),
                       [this](const T& value) { return value == values_[0]; });
  }

  // Stores a split value once again if every party's copy is equal.
  void Rejoin() {
    if (values_.size() > 1 && AllEqual()) {
      values_.erase(values_.begin() + 1, values_.end());
    }
  }

  // `num_parties` parties that each hold `value`, stored once.
  void assign(std::size_t num_parties, T value) {
    num_parties_ = num_parties;
    values_.clear();
    if (num_parties > 0) values_.push_back(std::move(value));
  }

  // f of every party's value, stored as this is: f runs once on a value
  // held once.
  template <typename F>
  [[nodiscard]] auto Map(F f) const {
    PerParty<std::invoke_result_t<F&, const T&>> out;
    out.num_parties_ = num_parties_;
    out.values_.reserve(values_.size());
    for (const T& value : values_) out.values_.push_back(f(value));
    return out;
  }

  // Party by party, however each side is stored (once when both hold one
  // value).
  friend bool operator==(const PerParty& a, const PerParty& b) {
    if (a.size() != b.size()) return false;
    if (a.stored().size() == 1 && b.stored().size() == 1) {
      return a.values_[0] == b.values_[0];
    }
    return std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  template <typename U>
  friend class PerParty;

  [[nodiscard]] std::size_t stride() const {
    return values_.size() == num_parties_ ? 1 : 0;
  }

  std::size_t num_parties_ = 0;
  std::vector<T> values_;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_UTIL_PER_PARTY_H_
