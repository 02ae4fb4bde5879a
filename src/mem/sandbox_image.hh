/**
 * @file
 * Sandbox images: the initial bytes of an input's memory sandbox, held
 * as a small immutable descriptor instead of the bytes themselves.
 *
 * A generated sandbox is a run of the input generator's xoshiro256**
 * stream — 8 bytes per draw — overlaid by a few restored bytes (a
 * sibling's copies of its base's architecturally-read bytes). Its image
 * is the stream state at the first word, the size, and those patches;
 * any 4 KiB page of it is materialized on demand by jumping the stream
 * to the page (one GF(2) jump through a table built once, see
 * pageJump()) and filling 512 words. A 128-page STT sandbox then costs
 * its consumers the pages a run touches, not 512 KiB per input. Decoded
 * and hand-built inputs carry explicit bytes instead; both kinds read
 * identically through this interface, so which one an input holds is
 * invisible to every consumer.
 */

#ifndef AMULET_MEM_SANDBOX_IMAGE_HH
#define AMULET_MEM_SANDBOX_IMAGE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace amulet::mem
{

/** Guest page/frame size. */
inline constexpr unsigned kPageShift = 12;
inline constexpr Addr kPageSize = Addr{1} << kPageShift;

/** Generator draws per page. */
inline constexpr std::size_t kWordsPerPage = kPageSize / 8;

/** Largest legal sandbox, in pages; also the page-jump table's bound. */
inline constexpr unsigned kMaxSandboxPages = 128;

/**
 * The generator state @p pages pages (512 draws each) after @p state:
 * one jump by the residue x^(512 * pages) mod P (common/rng.hh). The
 * residues for 0..kMaxSandboxPages pages are computed on first use into
 * a process-wide table whose initialization is thread-safe and which is
 * read-only afterwards.
 */
Rng::State pageJump(const Rng::State &state, unsigned pages);

/** An input sandbox's initial bytes (see the file comment). */
class SandboxImage
{
  public:
    /** One byte a generated image overrides. */
    struct Patch
    {
        std::uint32_t off;
        std::uint8_t value;
    };
    /** Strictly increasing offsets, all inside the image. Shared,
     *  read-only, by the siblings of one base input. */
    using Patches = std::vector<Patch>;

    /** The empty image. */
    SandboxImage() = default;

    /** Explicit bytes (decoded and hand-built inputs). */
    explicit SandboxImage(std::vector<std::uint8_t> bytes)
        : bytes_(std::move(bytes))
    {
    }

    /**
     * The @p size bytes the stream at @p first writes, 8 per draw in
     * Rng::fill order, overlaid by @p patches (null: none). @p size must
     * be a whole number of pages, at most kMaxSandboxPages. O(1): no
     * byte is generated until a page is asked for.
     */
    static SandboxImage generated(const Rng::State &first, std::size_t size,
                                  std::shared_ptr<const Patches> patches);

    std::size_t size() const { return generated_ ? size_ : bytes_.size(); }
    bool empty() const { return size() == 0; }
    /** Generated (lazy) rather than explicit bytes. */
    bool isGenerated() const { return generated_; }
    /** Pages the image spans (the last may be partial when explicit). */
    std::size_t numPages() const
    {
        return (size() + kPageSize - 1) >> kPageShift;
    }

    /** Byte at @p off (< size()): O(1) when explicit, one page jump
     *  plus up to 512 draws when generated. */
    std::uint8_t
    operator[](std::size_t off) const
    {
        return generated_ ? generatedByte(off) : bytes_[off];
    }

    /** Write page @p page's bytes (those below size()) to @p out. */
    void copyPage(std::size_t page, std::uint8_t *out) const;

    /** The (offset, byte) pairs at @p offsets, which must be strictly
     *  increasing and below size(): one page materialization per
     *  distinct page. */
    Patches bytesAt(const std::vector<std::size_t> &offsets) const;

    /** All bytes (a generated image is filled in one sequential pass). */
    std::vector<std::uint8_t> toBytes() const;

    /** The explicit byte storage, or null for a generated image. */
    const std::vector<std::uint8_t> *
    explicitBytes() const
    {
        return generated_ ? nullptr : &bytes_;
    }

    /** Equal bytes known without reading any: the same generated
     *  descriptor. Explicit images never qualify. */
    bool
    sameSource(const SandboxImage &other) const
    {
        return generated_ && other.generated_ && size_ == other.size_ &&
               first_ == other.first_ && patches_ == other.patches_;
    }

    /** Byte equality, whatever the representations. */
    bool operator==(const SandboxImage &other) const;

    /** @name Hand-built editing
     *  Both leave explicit bytes; editing a generated image first
     *  materializes it (O(size), tests and demos only). */
    /// @{
    void assign(std::size_t n, std::uint8_t value);
    void set(std::size_t off, std::uint8_t value);
    /// @}

    /** Move the explicit storage out (buffer recycling); the image is
     *  empty afterwards. Generated images have none to give. */
    std::vector<std::uint8_t> releaseBytes();

  private:
    std::uint8_t generatedByte(std::size_t off) const;

    std::vector<std::uint8_t> bytes_; ///< explicit representation
    bool generated_ = false;
    std::size_t size_ = 0;     ///< generated representation from here on
    Rng::State first_{};
    std::shared_ptr<const Patches> patches_;
};

} // namespace amulet::mem

#endif // AMULET_MEM_SANDBOX_IMAGE_HH
