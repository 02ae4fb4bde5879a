/**
 * @file
 * Random input generation and contract-preserving sibling mutation
 * (§2.4 "Input generation").
 *
 * Base inputs initialize registers, flags, and the sandbox from a seeded
 * PRNG. Siblings keep the parts that influence the contract trace —
 * registers, flags, and the architecturally-read sandbox bytes — while
 * randomizing the rest, so that equivalence classes (inputs with equal
 * contract traces but potentially different speculative behaviour) are
 * plentiful.
 */

#ifndef AMULET_CORE_INPUT_GEN_HH
#define AMULET_CORE_INPUT_GEN_HH

#include <memory>
#include <vector>

#include "arch/input.hh"
#include "common/rng.hh"
#include "mem/address_map.hh"

namespace amulet::core
{

/** Input-generation knobs. */
struct InputGenConfig
{
    mem::AddressMap map;
    /** Probability (percent) that a register gets a small value, which
     *  makes comparisons/branch conditions vary more. */
    unsigned smallRegPct = 50;
};

/**
 * Recycler for single-page sandbox buffers. Multi-page sandboxes are
 * generated images that own no bytes (src/mem/sandbox_image.hh), but a
 * one-page sandbox is materialized at generation — every run touches
 * its only page — and freshly allocating one per input makes the
 * kernel zero a page the generator is about to overwrite. A shard keeps
 * one pool across its programs: the generator takes warm buffers from
 * it and the shard returns a finished plan's sandboxes. Generated bytes
 * are identical with or without a pool (the generator writes every
 * byte it is responsible for), so pooling is invisible to the
 * determinism contract. Thread-confined, like everything else a shard
 * owns.
 */
class InputBufferPool
{
  public:
    /** A warm buffer (capacity from a prior input) or an empty one. */
    std::vector<std::uint8_t> take()
    {
        if (free_.empty())
            return {};
        std::vector<std::uint8_t> buf = std::move(free_.back());
        free_.pop_back();
        return buf;
    }

    /** Return a dead input's one-page sandbox storage for reuse. */
    void recycle(std::vector<std::uint8_t> &&buf)
    {
        if (buf.size() != mem::kPageSize || free_.size() >= kMaxFree)
            return;
        free_.push_back(std::move(buf));
    }

    /** Harvest the sandboxes of a batch of dead inputs. */
    void recycleAll(std::vector<arch::Input> &inputs)
    {
        for (arch::Input &input : inputs)
            recycle(input.sandbox.releaseBytes());
    }

  private:
    /** Bound: a shard never has more than a couple of plans' worth of
     *  inputs alive, so anything beyond this is leaked churn. */
    static constexpr std::size_t kMaxFree = 256;
    std::vector<std::vector<std::uint8_t>> free_;
};

/**
 * Deterministic input generator.
 *
 * A sandbox is the next sandboxSize/8 draws of the stream. Multi-page
 * sandboxes (up to mem::kMaxSandboxPages) come out as generated images:
 * the stream state is captured and jumped past the sandbox in one GF(2)
 * jump, so generating costs O(1) and every later draw is unchanged. A
 * one-page sandbox is filled eagerly, since its page is always touched
 * and regenerating it in each consumer costs more than copying it, and
 * keeps its descriptor beside the bytes (mem::SandboxImage::filled), so
 * the subprocess wire sends every generator sandbox as its descriptor.
 * Either way every byte equals a plain fill from the stream.
 */
class InputGenerator
{
  public:
    using Patches = mem::SandboxImage::Patches;

    /** @p pool (optional) donates warm sandbox buffers; output bytes do
     *  not depend on it. */
    InputGenerator(InputGenConfig config, Rng rng,
                   InputBufferPool *pool = nullptr)
        : cfg_(std::move(config)), rng_(rng), pool_(pool)
    {
    }

    /** Fresh random base input. */
    arch::Input generate(std::uint64_t id);

    /**
     * The bytes every sibling of @p base restores: (offset, base byte)
     * at each of @p read_offsets inside the sandbox, in offset order.
     * Compute once per base and share across its siblings.
     */
    static std::shared_ptr<const Patches>
    siblingPatches(const arch::Input &base,
                   const std::vector<std::size_t> &read_offsets);

    /**
     * Contract-preserving sibling: same registers and flags, the base's
     * bytes at @p patches (siblingPatches()), random elsewhere.
     */
    arch::Input sibling(const arch::Input &base,
                        const std::shared_ptr<const Patches> &patches,
                        std::uint64_t id);

    /** sibling() with the patches computed from @p read_offsets. */
    arch::Input
    sibling(const arch::Input &base,
            const std::vector<std::size_t> &read_offsets, std::uint64_t id)
    {
        return sibling(base, siblingPatches(base, read_offsets), id);
    }

  private:
    /** The next @p n sandbox bytes of the stream, overlaid by
     *  @p patches; a byte past the last whole word comes from @p tail
     *  (zero when null). */
    mem::SandboxImage draw(std::size_t n,
                           const std::shared_ptr<const Patches> &patches,
                           const mem::SandboxImage *tail);

    InputGenConfig cfg_;
    Rng rng_;
    InputBufferPool *pool_;
};

} // namespace amulet::core

#endif // AMULET_CORE_INPUT_GEN_HH
