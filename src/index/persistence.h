#ifndef EBI_INDEX_PERSISTENCE_H_
#define EBI_INDEX_PERSISTENCE_H_

#include <iosfwd>
#include <memory>

#include "encoding/mapping_table.h"
#include "index/encoded_bitmap_index.h"
#include "util/bitvector.h"
#include "util/status.h"
#include "util/stored_bitmap.h"
#include "util/stored_bitmap_io.h"

namespace ebi {

/// Binary persistence for the index building blocks. DW indexes are
/// disk-resident between query sessions; these routines serialize the
/// bitmap vectors and the mapping table to any std::ostream (a file, a
/// stringstream in tests) and restore them without a rebuild pass.
///
/// Format: little-endian, length-prefixed sections, each guarded by a
/// 32-bit magic so stream corruption is detected early. The format is an
/// implementation detail; only round-tripping through this library is
/// supported.

/// SaveBitVector/LoadBitVector and SaveStoredBitmap/LoadStoredBitmap
/// moved to util/stored_bitmap_io.h (re-exported by the include above)
/// so the storage engine can share the byte format without depending on
/// the index layer.

/// Mapping tables (codes, width, reserved codewords).
[[nodiscard]] Status SaveMappingTable(std::ostream& out,
                                      const MappingTable& mapping);
[[nodiscard]] Result<MappingTable> LoadMappingTable(std::istream& in);

/// Whole encoded bitmap indexes. Slices are saved in their stored format,
/// read (and charged) as a query reads them — an engine-resident index's
/// through its pool. Loading binds the restored slices and mapping to the
/// caller's column/existence/accountant and validates the row counts —
/// the column data itself is not part of the stream. `options` configures
/// the loaded index (e.g. options.engine to restore it onto engine
/// pages); its format is taken from the stream.
[[nodiscard]] Status SaveEncodedBitmapIndex(std::ostream& out,
                                            const EncodedBitmapIndex& index);
[[nodiscard]] Result<std::unique_ptr<EncodedBitmapIndex>> LoadEncodedBitmapIndex(
    std::istream& in, const Column* column, const BitVector* existence,
    IoAccountant* io, EncodedBitmapIndexOptions options = {});

}  // namespace ebi

#endif  // EBI_INDEX_PERSISTENCE_H_
