// A FIFO over an inline buffer (`rsd::InlineFifo`) for the short queues that
// many simulated objects each hold at once: a 512-GPU row keeps one per rank
// and one per device engine. The ring moves to the heap, doubling, only when
// the queue outgrows the inline buffer, so the common case allocates nothing.
#pragma once

#include <array>
#include <cstddef>
#include <memory>

#include "core/error.hpp"

namespace rsd {

template <typename T, std::size_t N>
class InlineFifo {
  static_assert(N > 0 && (N & (N - 1)) == 0, "capacity must be a power of two");

 public:
  InlineFifo() = default;
  InlineFifo(const InlineFifo&) = delete;  // buf_ may point into inline_
  InlineFifo& operator=(const InlineFifo&) = delete;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The i-th oldest element.
  [[nodiscard]] T& operator[](std::size_t i) { return buf_[(head_ + i) & (cap_ - 1)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  void push(const T& value) {
    if (size_ == cap_) {
      auto wider = std::make_unique<T[]>(2 * cap_);
      for (std::size_t i = 0; i < size_; ++i) wider[i] = (*this)[i];
      heap_ = std::move(wider);
      buf_ = heap_.get();
      cap_ *= 2;
      head_ = 0;
    }
    (*this)[size_++] = value;
  }

  T pop() {
    RSD_ASSERT(size_ > 0);
    const T value = buf_[head_];
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return value;
  }

 private:
  std::array<T, N> inline_{};
  std::unique_ptr<T[]> heap_;
  T* buf_ = inline_.data();
  std::size_t cap_ = N;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rsd
