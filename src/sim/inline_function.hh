/**
 * @file
 * Small-buffer std::function replacement for hot callbacks.
 *
 * std::function's inline buffer is 16 bytes on libstdc++, so nearly
 * every completion callback in the simulator heap-allocated on
 * assignment. InlineFunction stores its callable in place, in @p N
 * bytes, and never allocates: a callable that does not fit is a
 * compile error naming the buffer. N defaults to 144 so a packet's
 * base completion fits — component pointers, packet handles, and
 * notably the page-walker continuation (a StepList plus its
 * done-functor, ~128 bytes); datapath continuations that travel
 * through the event queue pick an N sized to their captures. A lambda
 * that captures a whole InlineFunction<N> by value is by construction
 * larger than N and does not compile, which is why completion chains
 * stack as Packet hops (mem/packet.hh) instead of nesting. Move-only,
 * so a closure may own a packet handle; dispatch is one static ops
 * table per callable type, like a vtable.
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

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    InlineFunction(InlineFunction&& other) noexcept
    {
        if (other.ops_) {
            other.ops_->moveTo(other.buf_, buf_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
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
        /** Move-construct into dst and leave src destroyed. */
        void (*moveTo)(void*, void*);
        void (*destroy)(void*);
    };

    template <typename Fn>
    static Fn*
    target(void* buf)
    {
        return std::launder(reinterpret_cast<Fn*>(buf));
    }

    template <typename Fn>
    static const Ops*
    opsFor()
    {
        static constexpr Ops table = {
            [](void* buf, Args&&... args) -> R {
                return (*target<Fn>(buf))(std::forward<Args>(args)...);
            },
            [](void* src, void* dst) {
                Fn* from = target<Fn>(src);
                ::new (dst) Fn(std::move(*from));
                from->~Fn();
            },
            [](void* buf) { target<Fn>(buf)->~Fn(); },
        };
        return &table;
    }

    template <typename F>
    void
    assign(F&& fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                      "callable does not match InlineFunction signature");
        static_assert(sizeof(Fn) <= N &&
                          alignof(Fn) <= alignof(std::max_align_t),
                      "callable does not fit the InlineFunction buffer "
                      "(buf_, N bytes): shrink its capture or raise N");
        ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
        ops_ = opsFor<Fn>();
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
