// 64-byte-aligned double buffers for the solver hot path.
//
// The Bellman kernel's sweep chunks are rounded to multiples of 8 doubles
// so every chunk boundary falls on a cache-line edge; for that to keep two
// workers' stores off the same line, the buffers themselves must start on
// a 64-byte boundary — std::vector<double> only guarantees 16. The buffer
// is also padded up to a multiple of 8 doubles, so its last cache line
// belongs to it alone and no other heap object shares it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <vector>

namespace support {

/// Doubles per 64-byte cache line.
inline constexpr std::size_t kDoublesPerLine = 8;

/// A fixed-capacity array of doubles whose storage starts on a 64-byte
/// boundary and whose allocation is padded to a whole number of cache
/// lines. Grow-only: resize never shrinks the allocation, so reusing one
/// buffer across the solves of an analysis allocates once.
class AlignedDoubles {
 public:
  AlignedDoubles() = default;
  explicit AlignedDoubles(std::size_t size) { resize(size); }

  AlignedDoubles(const AlignedDoubles&) = delete;
  AlignedDoubles& operator=(const AlignedDoubles&) = delete;

  AlignedDoubles(AlignedDoubles&& other) noexcept { swap(other); }
  AlignedDoubles& operator=(AlignedDoubles&& other) noexcept {
    swap(other);
    return *this;
  }

  ~AlignedDoubles() {
    if (data_ != nullptr) {
      ::operator delete[](data_, std::align_val_t{64});
    }
  }

  void swap(AlignedDoubles& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
  }

  /// Resizes to `size` logical elements. New storage (including the
  /// padding lane up to the next cache line) is zero-filled so reads past
  /// `size` up to padded_size() are defined.
  void resize(std::size_t size) {
    const std::size_t padded = pad(size);
    if (padded > capacity_) {
      double* grown = static_cast<double*>(
          ::operator new[](padded * sizeof(double), std::align_val_t{64}));
      std::memset(grown, 0, padded * sizeof(double));
      if (data_ != nullptr) {
        std::memcpy(grown, data_, size_ * sizeof(double));
        ::operator delete[](data_, std::align_val_t{64});
      }
      data_ = grown;
      capacity_ = padded;
    }
    size_ = size;
  }

  void assign(std::size_t size, double value) {
    resize(size);
    std::fill(data_, data_ + pad(size), value);
  }

  void assign(const std::vector<double>& source) {
    resize(source.size());
    std::memcpy(data_, source.data(), source.size() * sizeof(double));
    std::fill(data_ + source.size(), data_ + pad(source.size()), 0.0);
  }

  /// Copies the logical contents out to a plain vector (byte-exact).
  void copy_to(std::vector<double>* out) const {
    out->resize(size_);
    std::memcpy(out->data(), data_, size_ * sizeof(double));
  }

  double* data() { return data_; }
  const double* data() const { return data_; }
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  /// Allocation length: size() rounded up to a multiple of 8 doubles.
  std::size_t padded_size() const { return pad(size_); }

 private:
  static std::size_t pad(std::size_t size) {
    return (size + kDoublesPerLine - 1) / kDoublesPerLine * kDoublesPerLine;
  }

  double* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace support
