/**
 * @file
 * Sparse guest memory image.
 *
 * The simulated machine runs in a syscall-emulation-like mode: every
 * address is backed (reads of untouched memory return zero, writes
 * allocate), so neither architectural nor wrong-path accesses can fault.
 * Backing storage is allocated in 4 KiB frames on demand.
 *
 * An input's sandbox enters the image through mapSandbox(), which is
 * O(1) for a generated SandboxImage: the frames of the mapped range
 * materialize from the image on their first read or write, so a run
 * pays for the sandbox pages it touches. The frames a mapping
 * materialized (or, for explicit bytes, copied in) — and only those —
 * are what the next mapSandbox() discards; every other frame (the guard
 * page past the sandbox that line-crossing accesses spill into, the
 * priming region, code) persists across remaps with whatever the
 * previous runs stored there, exactly as a bulk byte copy of the
 * sandbox would leave it.
 */

#ifndef AMULET_MEM_MEMORY_IMAGE_HH
#define AMULET_MEM_MEMORY_IMAGE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/sandbox_image.hh"

namespace amulet::mem
{

/** Sparse byte-addressable memory with on-demand frame allocation. */
class MemoryImage
{
  public:
    /** Read one byte (0 for untouched memory). */
    std::uint8_t readByte(Addr addr) const;

    /** Write one byte, allocating the frame if needed. */
    void writeByte(Addr addr, std::uint8_t value);

    /** Little-endian read of @p size bytes (size in [1,8]). One frame
     *  lookup unless the access crosses a page boundary. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Little-endian write of @p size bytes (size in [1,8]). */
    void write(Addr addr, unsigned size, std::uint64_t value);

    /** Bulk copy in. */
    void writeBytes(Addr addr, const std::uint8_t *data, std::size_t len);

    /** Bulk copy out (untouched bytes read as zero). */
    void readBytes(Addr addr, std::uint8_t *out, std::size_t len) const;

    /**
     * Make @p image the bytes at [@p base, base + image.size()), @p base
     * page-aligned. First drops every frame the previous mapping owned
     * (and, when the range moved, any older frame inside the new one),
     * so the range reads as the image alone. A generated image is then
     * kept by value (a few words) and its frames materialize on first
     * access; explicit bytes are copied in at once — a one-page sandbox
     * is always touched, and copying it beats regenerating it. Either
     * way the mapping owns the range's frames until the next remap.
     * Reads through a const image may materialize frames, so an image
     * is confined to one thread like everything else its owner holds.
     */
    void mapSandbox(Addr base, const SandboxImage &image);

    /** Drop all frames and the mapping (all bytes become zero). */
    void clear();

    /** Number of allocated frames (for stats/tests). */
    std::size_t numFrames() const { return frames_.size(); }

  private:
    using Frame = std::vector<std::uint8_t>;

    /** The frame holding @p addr, materializing a mapped one; null if
     *  the page is unbacked. */
    std::uint8_t *frameFor(Addr addr) const;
    /** frameFor(), allocating a zero frame when unbacked. */
    std::uint8_t *allocFrame(Addr addr);
    /** A frame buffer for @p frame_no, recycled when possible. */
    std::uint8_t *newFrame(Addr frame_no) const;
    /** Drop frame @p frame_no (if present), keeping its storage. */
    void dropFrame(Addr frame_no);

    /** Keyed by frame number. Mutable: const reads materialize mapped
     *  frames. */
    mutable std::unordered_map<Addr, Frame> frames_;
    mutable std::vector<Frame> spare_; ///< storage of dropped frames

    /** @name The current sandbox mapping
     *  Frame numbers [mapFirst_, mapEnd_); mapped_ is the generated
     *  image still materializing (empty when explicit bytes were copied
     *  in); mapFrames_ lists the frames the mapping owns. */
    /// @{
    SandboxImage mapped_;
    Addr mapFirst_ = 0;
    Addr mapEnd_ = 0;
    mutable std::vector<Addr> mapFrames_;
    /// @}
};

} // namespace amulet::mem

#endif // AMULET_MEM_MEMORY_IMAGE_HH
