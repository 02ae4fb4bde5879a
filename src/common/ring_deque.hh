/**
 * @file
 * Fixed-slot circular deque for the simulator's hot queues.
 *
 * std::deque releases its block map on clear(), so queues cleared
 * between test inputs (the ROB, the L1D controller queue) pay an
 * allocation storm on every input. RingDeque keeps its slot array
 * alive across clear(): after the first input has sized the queue,
 * steady-state push/pop performs no allocation at all. Elements are
 * *assigned into* retained slots rather than constructed/destroyed, so
 * T must be default-constructible and copy/move-assignable — which the
 * simulator's queue payloads (DynInst, MemReq, Addr) all are.
 *
 * The interface is the std::deque subset the pipeline and memory
 * system use: front/back access, push_back, pop_front/pop_back,
 * indexing, mid-queue erase, and random-access iterators (binary
 * search over the ROB, reverse store-queue scans).
 */

#ifndef AMULET_COMMON_RING_DEQUE_HH
#define AMULET_COMMON_RING_DEQUE_HH

#include <cassert>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace amulet
{

template <typename T>
class RingDeque
{
  public:
    RingDeque() = default;
    explicit RingDeque(std::size_t capacity) { reserve(capacity); }

    /** Grow the slot array to hold at least @p capacity elements. */
    void
    reserve(std::size_t capacity)
    {
        if (capacity <= slots_.size())
            return;
        std::size_t cap = 8;
        while (cap < capacity)
            cap *= 2;
        regrow(cap);
    }

    /** Forget the contents; the slot array is retained. */
    void clear() { head_ = 0; size_ = 0; }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &operator[](std::size_t i) { return slots_[slot(i)]; }
    const T &operator[](std::size_t i) const { return slots_[slot(i)]; }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    /** @name Stable physical-slot addressing
     *  A physical slot index survives pop_front (the head only advances)
     *  — which makes it a stable handle to a live element as long as no
     *  regrow happens. Callers that cache slot indices (the pipeline's
     *  rename-time producer links) must reserve() their worst case up
     *  front; regrow() linearizes and would invalidate every handle. */
    /// @{
    /** Physical slot of the element at logical index @p i. */
    std::size_t slotIndex(std::size_t i) const
    {
        assert(i < size_);
        return slot(i);
    }

    /** Number of physical slots (slot indices are below this). */
    std::size_t capacity() const { return slots_.size(); }

    /** Element in physical slot @p phys, or nullptr if the slot holds
     *  no live element (popped, or never filled). */
    T *
    atSlot(std::size_t phys)
    {
        if (slots_.empty() || ((phys - head_) & mask_) >= size_)
            return nullptr;
        return &slots_[phys & mask_];
    }

    const T *
    atSlot(std::size_t phys) const
    {
        if (slots_.empty() || ((phys - head_) & mask_) >= size_)
            return nullptr;
        return &slots_[phys & mask_];
    }
    /// @}

    void
    push_back(const T &value)
    {
        if (size_ == slots_.size())
            regrow(slots_.empty() ? 8 : slots_.size() * 2);
        slots_[slot(size_)] = value;
        ++size_;
    }

    void
    push_back(T &&value)
    {
        if (size_ == slots_.size())
            regrow(slots_.empty() ? 8 : slots_.size() * 2);
        slots_[slot(size_)] = std::move(value);
        ++size_;
    }

    void
    pop_front()
    {
        assert(size_ > 0);
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void
    pop_back()
    {
        assert(size_ > 0);
        --size_;
    }

    /** Erase the element at @p index, shifting the tail left. */
    void
    erase(std::size_t index)
    {
        assert(index < size_);
        for (std::size_t i = index + 1; i < size_; ++i)
            slots_[slot(i - 1)] = std::move(slots_[slot(i)]);
        --size_;
    }

    /** @name Random-access iterators */
    /// @{
    template <bool Const>
    class Iter
    {
        using Container =
            std::conditional_t<Const, const RingDeque, RingDeque>;

      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;

        Iter() = default;
        Iter(Container *c, std::size_t i) : c_(c), i_(i) {}
        /** Mutable -> const conversion. */
        template <bool C = Const, typename = std::enable_if_t<C>>
        Iter(const Iter<false> &o) : c_(o.c_), i_(o.i_)
        {
        }

        reference operator*() const { return (*c_)[i_]; }
        pointer operator->() const { return &(*c_)[i_]; }
        reference operator[](difference_type n) const
        {
            return (*c_)[i_ + static_cast<std::size_t>(n)];
        }

        Iter &operator++() { ++i_; return *this; }
        Iter operator++(int) { Iter t = *this; ++i_; return t; }
        Iter &operator--() { --i_; return *this; }
        Iter operator--(int) { Iter t = *this; --i_; return t; }
        Iter &operator+=(difference_type n)
        {
            i_ = static_cast<std::size_t>(
                static_cast<difference_type>(i_) + n);
            return *this;
        }
        Iter &operator-=(difference_type n) { return *this += -n; }
        friend Iter operator+(Iter it, difference_type n)
        {
            return it += n;
        }
        friend Iter operator+(difference_type n, Iter it)
        {
            return it += n;
        }
        friend Iter operator-(Iter it, difference_type n)
        {
            return it -= n;
        }
        friend difference_type operator-(const Iter &a, const Iter &b)
        {
            return static_cast<difference_type>(a.i_) -
                   static_cast<difference_type>(b.i_);
        }
        friend bool operator==(const Iter &a, const Iter &b)
        {
            return a.i_ == b.i_;
        }
        friend bool operator!=(const Iter &a, const Iter &b)
        {
            return a.i_ != b.i_;
        }
        friend bool operator<(const Iter &a, const Iter &b)
        {
            return a.i_ < b.i_;
        }
        friend bool operator>(const Iter &a, const Iter &b)
        {
            return a.i_ > b.i_;
        }
        friend bool operator<=(const Iter &a, const Iter &b)
        {
            return a.i_ <= b.i_;
        }
        friend bool operator>=(const Iter &a, const Iter &b)
        {
            return a.i_ >= b.i_;
        }

      private:
        friend class Iter<true>;
        Container *c_ = nullptr;
        std::size_t i_ = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;
    using reverse_iterator = std::reverse_iterator<iterator>;
    using const_reverse_iterator = std::reverse_iterator<const_iterator>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }
    reverse_iterator rbegin() { return reverse_iterator(end()); }
    reverse_iterator rend() { return reverse_iterator(begin()); }
    const_reverse_iterator rbegin() const
    {
        return const_reverse_iterator(end());
    }
    const_reverse_iterator rend() const
    {
        return const_reverse_iterator(begin());
    }
    /// @}

  private:
    std::size_t slot(std::size_t i) const { return (head_ + i) & mask_; }

    /** Reallocate to power-of-two @p cap, linearizing the contents. */
    void
    regrow(std::size_t cap)
    {
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move(slots_[slot(i)]);
        slots_ = std::move(next);
        head_ = 0;
        mask_ = cap - 1;
    }

    std::vector<T> slots_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace amulet

#endif // AMULET_COMMON_RING_DEQUE_HH
