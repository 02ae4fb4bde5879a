#include "mem/memory_image.hh"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace amulet::mem
{

std::uint8_t *
MemoryImage::newFrame(Addr frame_no) const
{
    Frame f;
    if (spare_.empty()) {
        f.resize(kPageSize);
    } else {
        f = std::move(spare_.back());
        spare_.pop_back();
    }
    auto [it, _] = frames_.emplace(frame_no, std::move(f));
    if (frame_no - mapFirst_ < mapEnd_ - mapFirst_)
        mapFrames_.push_back(frame_no);
    return it->second.data();
}

std::uint8_t *
MemoryImage::frameFor(Addr addr) const
{
    const Addr frame_no = addr >> kPageShift;
    auto it = frames_.find(frame_no);
    if (it != frames_.end())
        return it->second.data();
    // Miss path only: a generated mapping's frame on first touch.
    if (frame_no - mapFirst_ < mapEnd_ - mapFirst_ &&
        mapped_.isGenerated()) {
        std::uint8_t *f = newFrame(frame_no);
        mapped_.copyPage(frame_no - mapFirst_, f);
        return f;
    }
    return nullptr;
}

std::uint8_t *
MemoryImage::allocFrame(Addr addr)
{
    if (std::uint8_t *f = frameFor(addr))
        return f;
    std::uint8_t *f = newFrame(addr >> kPageShift);
    std::memset(f, 0, kPageSize); // recycled storage holds stale bytes
    return f;
}

void
MemoryImage::dropFrame(Addr frame_no)
{
    auto node = frames_.extract(frame_no);
    if (!node.empty())
        spare_.push_back(std::move(node.mapped()));
}

std::uint8_t
MemoryImage::readByte(Addr addr) const
{
    const std::uint8_t *f = frameFor(addr);
    return f ? f[addr & (kPageSize - 1)] : 0;
}

void
MemoryImage::writeByte(Addr addr, std::uint8_t value)
{
    allocFrame(addr)[addr & (kPageSize - 1)] = value;
}

std::uint64_t
MemoryImage::read(Addr addr, unsigned size) const
{
    assert(size >= 1 && size <= 8);
    const Addr off = addr & (kPageSize - 1);
    std::uint64_t v = 0;
    if (off + size <= kPageSize) {
        const std::uint8_t *f = frameFor(addr);
        if (!f)
            return 0;
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<std::uint64_t>(f[off + i]) << (8 * i);
        return v;
    }
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<std::uint64_t>(readByte(addr + i)) << (8 * i);
    return v;
}

void
MemoryImage::write(Addr addr, unsigned size, std::uint64_t value)
{
    assert(size >= 1 && size <= 8);
    const Addr off = addr & (kPageSize - 1);
    if (off + size <= kPageSize) {
        std::uint8_t *f = allocFrame(addr);
        for (unsigned i = 0; i < size; ++i)
            f[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        writeByte(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

void
MemoryImage::writeBytes(Addr addr, const std::uint8_t *data, std::size_t len)
{
    std::size_t done = 0;
    while (done < len) {
        const Addr a = addr + done;
        const Addr off = a & (kPageSize - 1);
        const std::size_t chunk =
            std::min<std::size_t>(len - done, kPageSize - off);
        std::memcpy(allocFrame(a) + off, data + done, chunk);
        done += chunk;
    }
}

void
MemoryImage::readBytes(Addr addr, std::uint8_t *out, std::size_t len) const
{
    std::size_t done = 0;
    while (done < len) {
        const Addr a = addr + done;
        const Addr off = a & (kPageSize - 1);
        const std::size_t chunk =
            std::min<std::size_t>(len - done, kPageSize - off);
        if (const std::uint8_t *f = frameFor(a))
            std::memcpy(out + done, f + off, chunk);
        else
            std::memset(out + done, 0, chunk);
        done += chunk;
    }
}

void
MemoryImage::mapSandbox(Addr base, const SandboxImage &image)
{
    assert((base & (kPageSize - 1)) == 0);
    const Addr first = base >> kPageShift;
    const Addr end = first + image.numPages();
    for (Addr frame_no : mapFrames_)
        dropFrame(frame_no);
    mapFrames_.clear();
    // Every frame inside a mapped range is owned by the mapping, so
    // only a moved range can hold older ones.
    if ((first != mapFirst_ || end != mapEnd_) && !frames_.empty()) {
        for (Addr frame_no = first; frame_no < end; ++frame_no)
            dropFrame(frame_no);
    }
    mapFirst_ = first;
    mapEnd_ = end;
    if (const std::vector<std::uint8_t> *bytes = image.explicitBytes()) {
        mapped_ = SandboxImage();
        writeBytes(base, bytes->data(), bytes->size());
    } else {
        mapped_ = image;
    }
}

void
MemoryImage::clear()
{
    frames_.clear();
    mapped_ = SandboxImage();
    mapFirst_ = mapEnd_ = 0;
    mapFrames_.clear();
}

} // namespace amulet::mem
