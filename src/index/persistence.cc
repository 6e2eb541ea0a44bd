#include "index/persistence.h"

#include <istream>
#include <ostream>

namespace ebi {

namespace {

constexpr uint32_t kMappingMagic = 0x4542494D;    // "EBIM".
// "EBIJ". Slices are saved in their stored format; the older "EBII"
// stream held plain slices only and is rejected as a bad magic.
constexpr uint32_t kIndexMagic = 0x4542494A;

void WriteU32(std::ostream& out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out.write(buf, 4);
}

void WriteU64(std::ostream& out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out.write(buf, 8);
}

Result<uint32_t> ReadU32(std::istream& in) {
  char buf[4];
  if (!in.read(buf, 4)) {
    return Status::OutOfRange("truncated stream reading u32");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  }
  return v;
}

Result<uint64_t> ReadU64(std::istream& in) {
  char buf[8];
  if (!in.read(buf, 8)) {
    return Status::OutOfRange("truncated stream reading u64");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  }
  return v;
}

Status ExpectMagic(std::istream& in, uint32_t magic, const char* what) {
  EBI_ASSIGN_OR_RETURN(const uint32_t got, ReadU32(in));
  if (got != magic) {
    return Status::InvalidArgument(std::string("bad magic for ") + what);
  }
  return Status::OK();
}

}  // namespace

Status SaveMappingTable(std::ostream& out, const MappingTable& mapping) {
  WriteU32(out, kMappingMagic);
  WriteU32(out, static_cast<uint32_t>(mapping.width()));
  WriteU32(out, mapping.void_code().has_value() ? 1 : 0);
  WriteU64(out, mapping.void_code().value_or(0));
  WriteU32(out, mapping.null_code().has_value() ? 1 : 0);
  WriteU64(out, mapping.null_code().value_or(0));
  WriteU64(out, mapping.NumValues());
  for (uint64_t code : mapping.codes()) {
    WriteU64(out, code);
  }
  if (!out) {
    return Status::Internal("stream write failed");
  }
  return Status::OK();
}

Result<MappingTable> LoadMappingTable(std::istream& in) {
  EBI_RETURN_IF_ERROR(ExpectMagic(in, kMappingMagic, "MappingTable"));
  EBI_ASSIGN_OR_RETURN(const uint32_t width, ReadU32(in));
  EBI_ASSIGN_OR_RETURN(const uint32_t has_void, ReadU32(in));
  EBI_ASSIGN_OR_RETURN(const uint64_t void_code, ReadU64(in));
  EBI_ASSIGN_OR_RETURN(const uint32_t has_null, ReadU32(in));
  EBI_ASSIGN_OR_RETURN(const uint64_t null_code, ReadU64(in));
  EBI_ASSIGN_OR_RETURN(const uint64_t num_values, ReadU64(in));
  std::vector<uint64_t> codes;
  codes.reserve(num_values);
  for (uint64_t i = 0; i < num_values; ++i) {
    EBI_ASSIGN_OR_RETURN(const uint64_t code, ReadU64(in));
    codes.push_back(code);
  }
  return MappingTable::Create(
      static_cast<int>(width), codes,
      has_void ? std::optional<uint64_t>(void_code) : std::nullopt,
      has_null ? std::optional<uint64_t>(null_code) : std::nullopt);
}

Status SaveEncodedBitmapIndex(std::ostream& out,
                              const EncodedBitmapIndex& index) {
  std::vector<StoredBitmap> fetched;
  EBI_ASSIGN_OR_RETURN(const std::vector<const StoredBitmap*> slices,
                       index.FetchSlices(~uint64_t{0}, &fetched));
  WriteU32(out, kIndexMagic);
  EBI_RETURN_IF_ERROR(SaveMappingTable(out, index.mapping()));
  WriteU64(out, slices.size());
  for (const StoredBitmap* slice : slices) {
    EBI_RETURN_IF_ERROR(SaveStoredBitmap(out, *slice));
  }
  return Status::OK();
}

Result<std::unique_ptr<EncodedBitmapIndex>> LoadEncodedBitmapIndex(
    std::istream& in, const Column* column, const BitVector* existence,
    IoAccountant* io, EncodedBitmapIndexOptions options) {
  EBI_RETURN_IF_ERROR(ExpectMagic(in, kIndexMagic, "EncodedBitmapIndex"));
  EBI_ASSIGN_OR_RETURN(MappingTable mapping, LoadMappingTable(in));
  EBI_ASSIGN_OR_RETURN(const uint64_t num_slices, ReadU64(in));
  if (num_slices != static_cast<uint64_t>(mapping.width())) {
    return Status::InvalidArgument(
        "slice count " + std::to_string(num_slices) + " != mapping width " +
        std::to_string(mapping.width()));
  }
  std::vector<StoredBitmap> slices;
  slices.reserve(num_slices);
  for (uint64_t i = 0; i < num_slices; ++i) {
    EBI_ASSIGN_OR_RETURN(StoredBitmap slice, LoadStoredBitmap(in));
    slices.push_back(std::move(slice));
  }
  auto index = std::make_unique<EncodedBitmapIndex>(column, existence, io,
                                                    std::move(options));
  EBI_RETURN_IF_ERROR(
      index->RestoreFromParts(std::move(mapping), std::move(slices)));
  return index;
}

}  // namespace ebi
