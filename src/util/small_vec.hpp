#pragma once
// A small-size-optimized vector for trivially copyable element types.
//
// E-graph classes overwhelmingly hold one or two e-nodes (a fresh class holds
// exactly one until a merge hits it), so storing member lists in a
// std::vector wastes a heap allocation plus a cache miss per class. SmallVec
// keeps up to `N` elements inline inside the object and only spills to the
// heap when a class actually grows past that.

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace emorphic {

/// Vector with inline storage for the first `N` elements. Restricted to
/// trivially copyable `T` so growth and copies are plain memcpy.
template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is restricted to trivially copyable types");
  static_assert(N > 0, "inline capacity must be nonzero");

 public:
  SmallVec() = default;

  SmallVec(const SmallVec& other) { append(other.begin(), other.end()); }

  SmallVec(SmallVec&& other) noexcept { steal(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear();
      append(other.begin(), other.end());
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~SmallVec() { release(); }

  T* data() { return heap_ != nullptr ? heap_ : inline_ptr(); }
  const T* data() const { return heap_ != nullptr ? heap_ : inline_ptr(); }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  T& at(std::size_t i) {
    if (i >= size_) throw std::out_of_range("SmallVec::at");
    return data()[i];
  }
  const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("SmallVec::at");
    return data()[i];
  }

  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      // `value` may alias an element of this vector, and grow() frees the
      // old heap block — copy it out first or the write below reads freed
      // memory (tests/util/test_small_vec.cpp pins this under ASan).
      T tmp = value;
      grow(size_ + 1);
      data()[size_++] = tmp;
      return;
    }
    data()[size_++] = value;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    // The temporary materialized here never aliases our storage, so this
    // stays safe regardless of how push_back handles aliasing.
    push_back(T(std::forward<Args>(args)...));
    return back();
  }

  /// Append [first, last); the range must not alias this vector's storage.
  void append(const T* first, const T* last) {
    std::size_t n = static_cast<std::size_t>(last - first);
    if (n == 0) return;
    if (size_ + n > capacity_) grow(size_ + n);
    std::memcpy(data() + size_, first, n * sizeof(T));
    size_ += n;
  }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  /// Drop the heap allocation when the contents fit inline again.
  void shrink_to_fit() {
    if (heap_ == nullptr || size_ > N) return;
    std::memcpy(inline_ptr(), heap_, size_ * sizeof(T));
    std::free(heap_);
    heap_ = nullptr;
    capacity_ = N;
  }

 private:
  T* inline_ptr() { return reinterpret_cast<T*>(inline_storage_); }
  const T* inline_ptr() const {
    return reinterpret_cast<const T*>(inline_storage_);
  }

  void grow(std::size_t min_capacity) {
    std::size_t next = std::max<std::size_t>(capacity_ * 2, min_capacity);
    T* fresh = static_cast<T*>(std::malloc(next * sizeof(T)));
    if (fresh == nullptr) throw std::bad_alloc();
    std::memcpy(fresh, data(), size_ * sizeof(T));
    if (heap_ != nullptr) std::free(heap_);
    heap_ = fresh;
    capacity_ = next;
  }

  void release() {
    if (heap_ != nullptr) std::free(heap_);
    heap_ = nullptr;
    capacity_ = N;
    size_ = 0;
  }

  void steal(SmallVec& other) {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.capacity_ = N;
      other.size_ = 0;
    } else {
      heap_ = nullptr;
      capacity_ = N;
      size_ = other.size_;
      // Whole inline buffer: a fixed length, which GCC 12 cannot mistake
      // for an overflow as it does `size_ * sizeof(T)` (-Wstringop-overflow).
      std::memcpy(inline_storage_, other.inline_storage_,
                  sizeof(inline_storage_));
      other.size_ = 0;
    }
  }

  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace emorphic
