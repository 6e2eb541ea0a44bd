#ifndef EBI_UTIL_BITMAP_FORMAT_H_
#define EBI_UTIL_BITMAP_FORMAT_H_

#include <optional>
#include <string>

namespace ebi {

/// Physical representation of a stored bitmap vector.
///
/// Every bitmap-backed index answers queries over the same logical bit
/// vectors; this knob selects how those vectors are materialized (and
/// therefore how many bytes a vector read charges to the IoAccountant):
///
///   kPlain — one bit per tuple, word-aligned (BitVector).
///   kEwah  — word-aligned hybrid (EwahBitmap): marker words carry a
///            clean-run length plus a literal count, so logical operations
///            run directly on the compressed form at word granularity;
///            best for the very sparse vectors of simple indexes on
///            high-cardinality attributes (Section 4 of the paper).
enum class BitmapFormat : uint8_t {
  kPlain = 0,
  kEwah = 2,
};

/// Short stable name, e.g. "plain", "ewah".
inline const char* BitmapFormatName(BitmapFormat format) {
  switch (format) {
    case BitmapFormat::kPlain:
      return "plain";
    case BitmapFormat::kEwah:
      return "ewah";
  }
  return "?";
}

/// Index-name suffix: "" for the default plain format, "-ewah" otherwise,
/// so e.g. SimpleBitmapIndex reports "simple-bitmap-ewah".
inline std::string BitmapFormatSuffix(BitmapFormat format) {
  return format == BitmapFormat::kPlain
             ? std::string()
             : std::string("-") + BitmapFormatName(format);
}

/// Parses a format name; empty optional on unknown names.
inline std::optional<BitmapFormat> ParseBitmapFormat(
    const std::string& name) {
  if (name == "plain") {
    return BitmapFormat::kPlain;
  }
  if (name == "ewah") {
    return BitmapFormat::kEwah;
  }
  return std::nullopt;
}

}  // namespace ebi

#endif  // EBI_UTIL_BITMAP_FORMAT_H_
