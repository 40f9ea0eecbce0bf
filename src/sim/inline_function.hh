/**
 * @file
 * Small-buffer-optimized std::function replacement for hot callbacks.
 *
 * std::function's inline buffer is 16 bytes on libstdc++, so nearly
 * every completion callback in the simulator heap-allocated on
 * assignment. InlineFunction stores callables up to @p N bytes in
 * place and falls back to the heap beyond that. N defaults to 144 so
 * a packet's base completion fits inline — component pointers,
 * PktPtrs, and notably the page-walker continuation (a StepList plus
 * its done-functor, ~128 bytes); datapath continuations that travel
 * through the event queue pick an N sized to their captures. A lambda
 * that captures a whole InlineFunction<N> by value is by construction
 * larger than N and always takes the heap path, one block per nesting
 * level, which is why completion chains stack as Packet hops
 * (mem/packet.hh) instead of nesting. Copyable (required by Packet)
 * and movable; dispatch is one static ops table per callable type,
 * like a vtable.
 */

#ifndef FAMSIM_SIM_INLINE_FUNCTION_HH
#define FAMSIM_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace famsim {

template <typename Signature, std::size_t N = 144>
class InlineFunction;

template <typename R, typename... Args, std::size_t N>
class InlineFunction<R(Args...), N>
{
  public:
    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    InlineFunction(F&& fn)
    {
        assign(std::forward<F>(fn));
    }

    InlineFunction(const InlineFunction& other)
    {
        if (other.ops_) {
            other.ops_->copyTo(other.buf_, buf_);
            ops_ = other.ops_;
        }
    }

    InlineFunction(InlineFunction&& other) noexcept
    {
        if (other.ops_) {
            other.ops_->moveTo(other.buf_, buf_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    InlineFunction&
    operator=(const InlineFunction& other)
    {
        if (this != &other) {
            reset();
            if (other.ops_) {
                other.ops_->copyTo(other.buf_, buf_);
                ops_ = other.ops_;
            }
        }
        return *this;
    }

    InlineFunction&
    operator=(InlineFunction&& other) noexcept
    {
        if (this != &other) {
            reset();
            if (other.ops_) {
                other.ops_->moveTo(other.buf_, buf_);
                ops_ = other.ops_;
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    InlineFunction&
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    InlineFunction&
    operator=(F&& fn)
    {
        reset();
        assign(std::forward<F>(fn));
        return *this;
    }

    ~InlineFunction() { reset(); }

    [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

    /** Const like std::function's: the target is logically shared. */
    R
    operator()(Args... args) const
    {
        return ops_->call(const_cast<unsigned char*>(buf_),
                          std::forward<Args>(args)...);
    }

  private:
    struct Ops {
        R (*call)(void*, Args&&...);
        void (*copyTo)(const void*, void*);
        /** Move-construct into dst and leave src destroyed. */
        void (*moveTo)(void*, void*);
        void (*destroy)(void*);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= N && alignof(Fn) <= alignof(std::max_align_t);
    }

    template <typename Fn>
    static Fn*
    inlineObj(void* buf)
    {
        return std::launder(reinterpret_cast<Fn*>(buf));
    }

    template <typename Fn>
    static const Ops*
    inlineOps()
    {
        static constexpr Ops ops = {
            [](void* buf, Args&&... args) -> R {
                return (*inlineObj<Fn>(buf))(std::forward<Args>(args)...);
            },
            [](const void* src, void* dst) {
                ::new (dst) Fn(*std::launder(
                    reinterpret_cast<const Fn*>(src)));
            },
            [](void* src, void* dst) {
                Fn* obj = inlineObj<Fn>(src);
                ::new (dst) Fn(std::move(*obj));
                obj->~Fn();
            },
            [](void* buf) { inlineObj<Fn>(buf)->~Fn(); },
        };
        return &ops;
    }

    template <typename Fn>
    static Fn*&
    heapObj(void* buf)
    {
        return *std::launder(reinterpret_cast<Fn**>(buf));
    }

    template <typename Fn>
    static const Ops*
    heapOps()
    {
        static constexpr Ops ops = {
            [](void* buf, Args&&... args) -> R {
                return (*heapObj<Fn>(buf))(std::forward<Args>(args)...);
            },
            [](const void* src, void* dst) {
                ::new (dst) Fn*(new Fn(**std::launder(
                    reinterpret_cast<Fn* const*>(src))));
            },
            [](void* src, void* dst) {
                ::new (dst) Fn*(heapObj<Fn>(src)); // steal the pointer
            },
            [](void* buf) { delete heapObj<Fn>(buf); },
        };
        return &ops;
    }

    template <typename F>
    void
    assign(F&& fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                      "callable does not match InlineFunction signature");
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
            ops_ = inlineOps<Fn>();
        } else {
            ::new (static_cast<void*>(buf_)) Fn*(
                new Fn(std::forward<F>(fn)));
            ops_ = heapOps<Fn>();
        }
    }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    const Ops* ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[N];
};

} // namespace famsim

#endif // FAMSIM_SIM_INLINE_FUNCTION_HH
