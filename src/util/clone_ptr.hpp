// An owning pointer that deep-copies: copying the owner copies the pointee.
//
// For state a class allocates lazily (most instances never need it) but
// that must still travel with copies of its owner, the way an inline member
// would. Moves are as cheap as std::unique_ptr's.
#pragma once

#include <memory>

namespace hdtn {

template <typename T>
class ClonePtr {
 public:
  ClonePtr() = default;
  ClonePtr(const ClonePtr& other) : ptr_(clone(other)) {}
  ClonePtr& operator=(const ClonePtr& other) {
    if (this != &other) ptr_ = clone(other);
    return *this;
  }
  ClonePtr(ClonePtr&&) noexcept = default;
  ClonePtr& operator=(ClonePtr&&) noexcept = default;

  [[nodiscard]] T* get() const { return ptr_.get(); }
  [[nodiscard]] T& operator*() const { return *ptr_; }
  [[nodiscard]] T* operator->() const { return ptr_.get(); }
  [[nodiscard]] explicit operator bool() const { return ptr_ != nullptr; }

  /// The pointee, default-constructing it first when there is none.
  T& getOrCreate() {
    if (ptr_ == nullptr) ptr_ = std::make_unique<T>();
    return *ptr_;
  }
  void reset() { ptr_.reset(); }

 private:
  static std::unique_ptr<T> clone(const ClonePtr& other) {
    return other.ptr_ != nullptr ? std::make_unique<T>(*other.ptr_) : nullptr;
  }

  std::unique_ptr<T> ptr_;
};

}  // namespace hdtn
