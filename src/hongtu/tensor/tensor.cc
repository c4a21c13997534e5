#include "hongtu/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "hongtu/tensor/pool.h"

namespace hongtu {

Tensor::Tensor(int64_t rows, int64_t cols) : rows_(rows), cols_(cols) {
  data_ = TensorPool::Global().Acquire(rows * cols, &cap_);
  if (data_ != nullptr) {
    std::memset(data_, 0, static_cast<size_t>(rows * cols) * sizeof(float));
  }
}

Tensor::~Tensor() { Reset(); }

void Tensor::Reset() {
  if (owned_ && data_ != nullptr) {
    TensorPool::Global().Release(data_, cap_);
  }
  data_ = nullptr;
  cap_ = 0;
  rows_ = 0;
  cols_ = 0;
  owned_ = true;
}

Tensor::Tensor(Tensor&& o) noexcept
    : rows_(o.rows_),
      cols_(o.cols_),
      data_(o.data_),
      cap_(o.cap_),
      owned_(o.owned_) {
  o.data_ = nullptr;
  o.cap_ = 0;
  o.rows_ = 0;
  o.cols_ = 0;
  o.owned_ = true;
}

Tensor& Tensor::operator=(Tensor&& o) noexcept {
  if (this != &o) {
    Reset();
    rows_ = o.rows_;
    cols_ = o.cols_;
    data_ = o.data_;
    cap_ = o.cap_;
    owned_ = o.owned_;
    o.data_ = nullptr;
    o.cap_ = 0;
    o.rows_ = 0;
    o.cols_ = 0;
    o.owned_ = true;
  }
  return *this;
}

Tensor Tensor::Uninitialized(int64_t rows, int64_t cols) {
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_ = TensorPool::Global().Acquire(rows * cols, &t.cap_);
  if (!TensorPool::Global().enabled() && t.data_ != nullptr) {
    // A/B escape hatch (TensorPool::SetEnabled(false)): restore the
    // pre-pool behavior, where every allocation was zero-filled.
    std::memset(t.data_, 0,
                static_cast<size_t>(rows * cols) * sizeof(float));
  }
  return t;
}

Tensor Tensor::View(Tensor& t) { return t.RowSlice(0, t.rows_); }

Tensor Tensor::RowSlice(int64_t row_begin, int64_t count) {
  Tensor v;
  v.rows_ = count;
  v.cols_ = cols_;
  v.data_ = count > 0 ? data_ + row_begin * cols_ : nullptr;
  v.owned_ = false;
  return v;
}

void Tensor::EnsureShape(int64_t rows, int64_t cols) {
  const int64_t need = rows * cols;
  if (TensorPool::Global().enabled()) {
    // Owned storage with enough capacity is reshaped in place (an empty
    // shape keeps the buffer parked for the next non-empty reshape); only
    // views and undersized buffers swap in fresh pooled storage.
    if (owned_ && need <= cap_) {
      rows_ = rows;
      cols_ = cols;
      return;
    }
  } else if (owned_ && rows == rows_ && cols == cols_ &&
             (data_ != nullptr || need == 0)) {
    // A/B escape hatch: the pre-pool code reused a buffer only on an exact
    // shape match and reallocated (zero-filled) otherwise.
    return;
  }
  *this = Uninitialized(rows, cols);
}

void Tensor::EnsureShapeZeroed(int64_t rows, int64_t cols) {
  EnsureShape(rows, cols);
  Zero();
}

Tensor Tensor::GlorotUniform(int64_t rows, int64_t cols, uint64_t seed) {
  Tensor t = Uninitialized(rows, cols);
  Rng rng(seed);
  const float limit = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.NextFloat(-limit, limit);
  }
  return t;
}

Tensor Tensor::Gaussian(int64_t rows, int64_t cols, float stddev,
                        uint64_t seed) {
  Tensor t = Uninitialized(rows, cols);
  Rng rng(seed);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = stddev * rng.NextGaussian();
  }
  return t;
}

void Tensor::Fill(float v) { std::fill_n(data_, size(), v); }

void Tensor::Zero() {
  if (data_ != nullptr) {
    std::memset(data_, 0, static_cast<size_t>(bytes()));
  }
}

Tensor Tensor::Clone() const {
  Tensor t = Uninitialized(rows_, cols_);
  if (data_ != nullptr) {
    std::memcpy(t.data(), data_, static_cast<size_t>(bytes()));
  }
  return t;
}

Status Tensor::CopyFrom(const Tensor& src) {
  if (src.rows() != rows_ || src.cols() != cols_) {
    return Status::Invalid("Tensor::CopyFrom shape mismatch");
  }
  if (data_ != nullptr) {
    std::memcpy(data_, src.data(), static_cast<size_t>(bytes()));
  }
  return Status::OK();
}

double Tensor::Norm() const {
  double s = 0.0;
  for (int64_t i = 0; i < size(); ++i) {
    s += static_cast<double>(data_[i]) * data_[i];
  }
  return std::sqrt(s);
}

double Tensor::MaxAbsDiff(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::numeric_limits<double>::infinity();
  }
  double m = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, static_cast<double>(std::fabs(a.data()[i] - b.data()[i])));
  }
  return m;
}

}  // namespace hongtu
