// Fuzz target: the checkpoint loader (core/serialization.h LoadIndex,
// page-table parser included) and the store MANIFEST reader, exercised
// through store::Recover — the exact code path crash recovery runs over
// whatever bytes a died process (or damaged disk) left behind.

#include <cstdint>
#include <filesystem>
#include <string>

#include "core/serialization.h"
#include "fuzz_scratch.h"
#include "store/store.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Surface 1: the checkpoint loader on a raw candidate file. It sits in
  // its own directory, so page references resolve under <that dir>/tier.
  static const std::string idx_dir = anc::fuzz::ScratchPath("idx");
  static const std::string idx_path = idx_dir + "/ckpt.idx";
  std::error_code ec;
  std::filesystem::create_directories(idx_dir, ec);
  if (!ec && anc::fuzz::WriteInput(idx_path, data, size)) {
    (void)anc::LoadIndex(idx_path);
  }

  // Surface 2: the manifest reader, via full recovery over a store
  // directory whose MANIFEST is the fuzz input. The named checkpoint (if
  // the manifest parses) is absent, so Recover also walks its fallback
  // candidate scan.
  static const std::string dir = anc::fuzz::ScratchPath("store");
  std::filesystem::create_directories(dir, ec);
  if (!ec && anc::fuzz::WriteInput(dir + "/MANIFEST", data, size)) {
    (void)anc::store::Recover(dir);
  }

  std::filesystem::remove_all(idx_dir, ec);
  std::filesystem::remove_all(dir, ec);
  return 0;
}
