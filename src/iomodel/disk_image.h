// Disk image persistence: serialize a SimDisk to a real file and back.
//
// The paper assigned each database area to a UNIX file (3.1); the
// simulated disk does the equivalent by dumping its page images. Only
// pages that were ever written are stored (sparse format). Loading
// restores the page images verbatim; allocator state is recovered
// separately from the on-disk directory blocks
// (DatabaseArea::RecoverSpaces).
//
// File format (little endian):
//   u32 magic 'LOBF'   u32 version   u32 page_size   u32 n_areas
//   per area: u32 n_present_pages, then n times { u32 page_no, page bytes }

#ifndef LOB_IOMODEL_DISK_IMAGE_H_
#define LOB_IOMODEL_DISK_IMAGE_H_

#include <string>

#include "common/status.h"
#include "iomodel/sim_disk.h"

namespace lob {

/// Writes every present page of every area to `path` (overwrites).
[[nodiscard]]
Status SaveDiskImage(const SimDisk& disk, const std::string& path);

/// Loads an image into `disk`, which must have the same page size and
/// either no areas (they are created) or exactly the image's area count
/// with nothing written yet. Restores the pages; I/O counters are reset
/// afterwards (loading is not simulated work).
///
/// An area whose page ids are not strictly increasing is Corruption, and
/// so is a page id at or past n_present_pages * stride, where stride is
/// the buddy-space stride of the disk's config (2^buddy_space_order data
/// pages plus one directory page): a database image stores the directory
/// page of each of its buddy spaces, so an area of n pages spans at most
/// n spaces.
[[nodiscard]] Status LoadDiskImage(SimDisk* disk, const std::string& path);

}  // namespace lob

#endif  // LOB_IOMODEL_DISK_IMAGE_H_
