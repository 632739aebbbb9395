#include "iomodel/disk_image.h"

#include <cstdio>
#include <memory>
#include <vector>

namespace lob {

namespace {

constexpr uint32_t kImageMagic = 0x4C4F4246;  // "LOBF"
constexpr uint32_t kImageVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteU32(std::FILE* f, uint32_t v) {
  return std::fwrite(&v, 4, 1, f) == 1;
}

bool ReadU32(std::FILE* f, uint32_t* v) {
  return std::fread(v, 4, 1, f) == 1;
}

}  // namespace

Status SaveDiskImage(const SimDisk& disk, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return Status::Internal("cannot open image for writing");
  if (!WriteU32(f.get(), kImageMagic) || !WriteU32(f.get(), kImageVersion) ||
      !WriteU32(f.get(), disk.page_size()) ||
      !WriteU32(f.get(), disk.num_areas())) {
    return Status::Internal("image header write failed");
  }
  for (AreaId area = 0; area < disk.num_areas(); ++area) {
    const PageId high = disk.AreaHighWater(area);
    uint32_t present = 0;
    for (PageId p = 0; p < high; ++p) {
      if (disk.PeekPage(area, p) != nullptr) present++;
    }
    if (!WriteU32(f.get(), present)) {
      return Status::Internal("image area header write failed");
    }
    for (PageId p = 0; p < high; ++p) {
      const char* data = disk.PeekPage(area, p);
      if (data == nullptr) continue;
      if (!WriteU32(f.get(), p) ||
          std::fwrite(data, disk.page_size(), 1, f.get()) != 1) {
        return Status::Internal("image page write failed");
      }
    }
  }
  if (std::fflush(f.get()) != 0) {
    return Status::Internal("image flush failed");
  }
  return Status::OK();
}

Status LoadDiskImage(SimDisk* disk, const std::string& path) {
  for (AreaId a = 0; a < disk->num_areas(); ++a) {
    if (disk->AreaHighWater(a) != 0) {
      return Status::InvalidArgument("load requires a fresh disk");
    }
  }
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::NotFound("no such image file");
  uint32_t magic = 0, version = 0, page_size = 0, n_areas = 0;
  if (!ReadU32(f.get(), &magic) || !ReadU32(f.get(), &version) ||
      !ReadU32(f.get(), &page_size) || !ReadU32(f.get(), &n_areas)) {
    return Status::Corruption("truncated image header");
  }
  if (magic != kImageMagic) return Status::Corruption("bad image magic");
  if (version != kImageVersion) {
    return Status::Corruption("unsupported image version");
  }
  if (page_size != disk->page_size()) {
    return Status::InvalidArgument("image page size mismatch");
  }
  if (disk->num_areas() != 0 && disk->num_areas() != n_areas) {
    return Status::InvalidArgument("image area count mismatch");
  }
  const bool create_areas = disk->num_areas() == 0;
  const uint64_t space_stride =
      (uint64_t{1} << disk->config().buddy_space_order) + 1;
  std::vector<char> buf(page_size);
  for (uint32_t a = 0; a < n_areas; ++a) {
    const AreaId area = create_areas ? disk->CreateArea() : a;
    uint32_t present = 0;
    if (!ReadU32(f.get(), &present)) {
      return Status::Corruption("truncated area header");
    }
    PageId prev = 0;
    for (uint32_t i = 0; i < present; ++i) {
      uint32_t page = 0;
      if (!ReadU32(f.get(), &page) ||
          std::fread(buf.data(), page_size, 1, f.get()) != 1) {
        return Status::Corruption("truncated page record");
      }
      // Checked before the write: a wild id must not size the area.
      if (i > 0 && page <= prev) {
        return Status::Corruption("image page ids not increasing");
      }
      if (page / space_stride >= present) {
        return Status::Corruption("image page id past its buddy spaces");
      }
      prev = page;
      LOB_RETURN_IF_ERROR(disk->Write(area, page, 1, buf.data()));
    }
  }
  disk->ResetStats();  // restoring the image is not simulated work
  return Status::OK();
}

}  // namespace lob
