#include "index/persistence.h"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.h"
#include "util/random.h"

namespace ebi {
namespace {

using testing_util::IntTable;
using testing_util::RandomIntTable;
using testing_util::ScanEquals;

TEST(PersistenceTest, BitVectorRoundTrip) {
  BitVector bits(130);
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  std::stringstream stream;
  ASSERT_TRUE(SaveBitVector(stream, bits).ok());
  const auto loaded = LoadBitVector(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, bits);
}

TEST(PersistenceTest, EmptyBitVectorRoundTrip) {
  std::stringstream stream;
  ASSERT_TRUE(SaveBitVector(stream, BitVector()).ok());
  const auto loaded = LoadBitVector(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(PersistenceTest, BitVectorBadMagicRejected) {
  std::stringstream stream("garbage bytes here........");
  EXPECT_EQ(LoadBitVector(stream).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PersistenceTest, TruncatedStreamRejected) {
  BitVector bits(1000, true);
  std::stringstream stream;
  ASSERT_TRUE(SaveBitVector(stream, bits).ok());
  const std::string full = stream.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_EQ(LoadBitVector(cut).status().code(), StatusCode::kOutOfRange);
}

TEST(PersistenceTest, StoredBitmapRoundTripEveryFormat) {
  BitVector bits(300);
  for (size_t i = 0; i < 300; i += 7) {
    bits.Set(i);
  }
  bits.Set(299);
  for (const BitmapFormat format :
       {BitmapFormat::kPlain, BitmapFormat::kEwah}) {
    const StoredBitmap original = StoredBitmap::Make(bits, format);
    std::stringstream stream;
    ASSERT_TRUE(SaveStoredBitmap(stream, original).ok());
    const auto loaded = LoadStoredBitmap(stream);
    ASSERT_TRUE(loaded.ok()) << BitmapFormatName(format);
    EXPECT_EQ(loaded->format(), format);
    EXPECT_EQ(loaded->size(), original.size());
    EXPECT_EQ(loaded->SizeBytes(), original.SizeBytes())
        << "physical layout changed across the round trip";
    EXPECT_EQ(loaded->ToBitVector(), bits) << BitmapFormatName(format);
  }
}

TEST(PersistenceTest, EmptyStoredBitmapRoundTrip) {
  for (const BitmapFormat format :
       {BitmapFormat::kPlain, BitmapFormat::kEwah}) {
    const StoredBitmap original = StoredBitmap::Make(BitVector(), format);
    std::stringstream stream;
    ASSERT_TRUE(SaveStoredBitmap(stream, original).ok());
    const auto loaded = LoadStoredBitmap(stream);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->size(), 0u);
  }
}

TEST(PersistenceTest, StoredBitmapBadMagicRejected) {
  std::stringstream stream("not a stored bitmap, honest......");
  EXPECT_EQ(LoadStoredBitmap(stream).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PersistenceTest, StoredBitmapUnknownTagRejected) {
  // A valid magic followed by a format tag the reader does not know.
  std::stringstream good;
  ASSERT_TRUE(
      SaveStoredBitmap(good, StoredBitmap::Make(BitVector(8), BitmapFormat::kPlain))
          .ok());
  std::string bytes = good.str();
  bytes[4] = 42;  // Overwrite the little-endian format tag.
  std::stringstream bad(bytes);
  EXPECT_EQ(LoadStoredBitmap(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PersistenceTest, StoredBitmapTruncationRejected) {
  BitVector bits(2048);
  for (size_t i = 0; i < 2048; i += 3) {
    bits.Set(i);
  }
  for (const BitmapFormat format :
       {BitmapFormat::kPlain, BitmapFormat::kEwah}) {
    std::stringstream stream;
    ASSERT_TRUE(
        SaveStoredBitmap(stream, StoredBitmap::Make(bits, format)).ok());
    const std::string full = stream.str();
    std::stringstream cut(full.substr(0, full.size() - 5));
    EXPECT_EQ(LoadStoredBitmap(cut).status().code(),
              StatusCode::kOutOfRange)
        << BitmapFormatName(format);
  }
}

TEST(PersistenceTest, StoredBitmapTruncationFuzzEveryFormat) {
  // Randomized truncation sweep: a stored bitmap cut at *any* byte
  // boundary must come back as a descriptive Status — never a crash, an
  // over-allocation on a garbage length, or a silently short bitmap.
  Rng rng(20260809);
  BitVector bits(5000);
  for (size_t i = 0; i < 5000; ++i) {
    if (rng.Bernoulli(0.3)) {
      bits.Set(i);
    }
  }
  for (const BitmapFormat format :
       {BitmapFormat::kPlain, BitmapFormat::kEwah}) {
    std::stringstream stream;
    ASSERT_TRUE(
        SaveStoredBitmap(stream, StoredBitmap::Make(bits, format)).ok());
    const std::string full = stream.str();
    for (int trial = 0; trial < 150; ++trial) {
      const size_t cut = rng.UniformInt(full.size());  // Strict prefix.
      std::stringstream truncated(full.substr(0, cut));
      const auto loaded = LoadStoredBitmap(truncated);
      EXPECT_FALSE(loaded.ok())
          << BitmapFormatName(format) << " decoded a " << cut
          << "-byte prefix of " << full.size();
      EXPECT_FALSE(loaded.status().message().empty());
    }
    // Byte-flip sweep: corrupted streams must never crash; they either
    // fail loudly or (e.g. a flipped payload bit) decode to some bitmap.
    for (int trial = 0; trial < 150; ++trial) {
      std::string mutated = full;
      mutated[rng.UniformInt(mutated.size())] =
          static_cast<char>(rng.Next());
      std::stringstream garbled(mutated);
      const auto loaded = LoadStoredBitmap(garbled);
      (void)loaded;
    }
  }
}

TEST(PersistenceTest, StoredBitmapRetiredRleTagRejected) {
  // Tag 1 was a run-length format that is no longer supported: a stream
  // carrying it must fail to load, not be misparsed as another format.
  std::stringstream good;
  ASSERT_TRUE(
      SaveStoredBitmap(good, StoredBitmap::Make(BitVector(8), BitmapFormat::kPlain))
          .ok());
  std::string bytes = good.str();
  bytes[4] = 1;  // The little-endian format tag.
  std::stringstream retired(bytes);
  EXPECT_EQ(LoadStoredBitmap(retired).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PersistenceTest, StoredBitmapCorruptEwahWordsRejected) {
  BitVector bits(512);
  for (size_t i = 0; i < 512; i += 2) {
    bits.Set(i);
  }
  const StoredBitmap original =
      StoredBitmap::Make(bits, BitmapFormat::kEwah);
  std::stringstream stream;
  ASSERT_TRUE(SaveStoredBitmap(stream, original).ok());
  std::string bytes = stream.str();
  // Smash the first marker word (right after magic, tag, size, count).
  for (size_t i = 24; i < 32 && i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(0xFF);
  }
  std::stringstream bad(bytes);
  EXPECT_FALSE(LoadStoredBitmap(bad).ok());
}

TEST(PersistenceTest, StoredBitmapsShareStreamWithOtherSections) {
  std::stringstream stream;
  const BitVector plain = BitVector::FromString("1010");
  const StoredBitmap ewah =
      StoredBitmap::Make(BitVector::FromString("000111"), BitmapFormat::kEwah);
  ASSERT_TRUE(SaveBitVector(stream, plain).ok());
  ASSERT_TRUE(SaveStoredBitmap(stream, ewah).ok());
  const auto first = LoadBitVector(stream);
  const auto second = LoadStoredBitmap(stream);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, plain);
  EXPECT_EQ(second->ToBitVector(), BitVector::FromString("000111"));
}

TEST(PersistenceTest, MappingTableRoundTrip) {
  const auto mapping =
      MappingTable::Create(3, {0b001, 0b010, 0b100}, 0, 0b111);
  ASSERT_TRUE(mapping.ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveMappingTable(stream, *mapping).ok());
  const auto loaded = LoadMappingTable(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->width(), 3);
  EXPECT_EQ(loaded->void_code(), std::optional<uint64_t>(0));
  EXPECT_EQ(loaded->null_code(), std::optional<uint64_t>(0b111));
  for (ValueId v = 0; v < 3; ++v) {
    EXPECT_EQ(*loaded->CodeOf(v), *mapping->CodeOf(v));
  }
}

TEST(PersistenceTest, MappingTableWithoutReservedCodes) {
  const auto mapping = MappingTable::Create(2, {0, 1, 2, 3});
  ASSERT_TRUE(mapping.ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveMappingTable(stream, *mapping).ok());
  const auto loaded = LoadMappingTable(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->void_code().has_value());
  EXPECT_FALSE(loaded->null_code().has_value());
}

TEST(PersistenceTest, EncodedIndexRoundTripAnswersIdentically) {
  auto table = RandomIntTable(500, 40, 21, /*null_fraction=*/0.1);
  IoAccountant io;
  EncodedBitmapIndex original(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(original.Build().ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveEncodedBitmapIndex(stream, original).ok());
  const auto loaded = LoadEncodedBitmapIndex(
      stream, &table->column(0), &table->existence(), &io);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ((*loaded)->NumVectors(), original.NumVectors());
  for (int64_t v = 0; v < 40; v += 3) {
    const auto a = original.EvaluateEquals(Value::Int(v));
    const auto b = (*loaded)->EvaluateEquals(Value::Int(v));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << v;
  }
  const auto nulls = (*loaded)->EvaluateIsNull();
  ASSERT_TRUE(nulls.ok());
  EXPECT_EQ(*nulls, *original.EvaluateIsNull());
}

TEST(PersistenceTest, EncodedIndexRoundTripEveryFormatAndResidency) {
  // Slices are saved in their stored form, so a compressed index reloads
  // in its own format, from memory or from engine pages alike.
  auto table = RandomIntTable(200, 13, 5);
  for (const BitmapFormat format :
       {BitmapFormat::kPlain, BitmapFormat::kEwah}) {
    for (const bool on_engine : {false, true}) {
      SCOPED_TRACE(std::string(BitmapFormatName(format)) +
                   (on_engine ? " engine" : " resident"));
      IoAccountant io;
      auto engine = testing_util::ScratchEngine("persist", 8, &io);
      ASSERT_NE(engine, nullptr);
      EncodedBitmapIndexOptions options;
      options.format = format;
      options.engine = on_engine ? engine.get() : nullptr;
      EncodedBitmapIndex original(&table->column(0), &table->existence(),
                                  &io, options);
      ASSERT_TRUE(original.Build().ok());

      std::stringstream stream;
      ASSERT_TRUE(SaveEncodedBitmapIndex(stream, original).ok());
      EncodedBitmapIndexOptions load_options;
      load_options.engine = options.engine;
      const auto loaded =
          LoadEncodedBitmapIndex(stream, &table->column(0),
                                 &table->existence(), &io, load_options);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ((*loaded)->Name(), original.Name());
      EXPECT_EQ((*loaded)->NumVectors(), original.NumVectors());
      EXPECT_EQ((*loaded)->SizeBytes(), original.SizeBytes());
      for (int64_t v = 0; v < 13; ++v) {
        const auto got = (*loaded)->EvaluateEquals(Value::Int(v));
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, ScanEquals(*table, table->column(0), v)) << v;
      }
    }
  }
}

TEST(PersistenceTest, EncodedIndexOldStreamRejected) {
  // The previous stream version ("EBII") held plain slices only; it must
  // be rejected by its magic rather than misparsed.
  auto table = IntTable({1, 2, 3});
  IoAccountant io;
  EncodedBitmapIndex original(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(original.Build().ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveEncodedBitmapIndex(stream, original).ok());
  std::string bytes = stream.str();
  bytes[0] = 'I';  // Little-endian "EBII".
  std::stringstream old(bytes);
  EXPECT_EQ(LoadEncodedBitmapIndex(old, &table->column(0),
                                   &table->existence(), &io)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PersistenceTest, LoadedIndexSupportsAppends) {
  auto table = IntTable({1, 2, 3});
  IoAccountant io;
  EncodedBitmapIndex original(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(original.Build().ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveEncodedBitmapIndex(stream, original).ok());
  const auto loaded = LoadEncodedBitmapIndex(
      stream, &table->column(0), &table->existence(), &io);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(table->AppendRow({Value::Int(9)}).ok());
  ASSERT_TRUE((*loaded)->Append(3).ok());
  const auto rows = (*loaded)->EvaluateEquals(Value::Int(9));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->ToString(), "0001");
}

TEST(PersistenceTest, LoadAgainstWrongColumnRejected) {
  auto table = IntTable({1, 2, 3});
  IoAccountant io;
  EncodedBitmapIndex original(&table->column(0), &table->existence(), &io);
  ASSERT_TRUE(original.Build().ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveEncodedBitmapIndex(stream, original).ok());

  // A column with more rows than the saved slices cover.
  auto other = IntTable({1, 2, 3, 4, 5});
  EXPECT_FALSE(LoadEncodedBitmapIndex(stream, &other->column(0),
                                      &other->existence(), &io)
                   .ok());
}

TEST(PersistenceTest, MultipleObjectsInOneStream) {
  std::stringstream stream;
  const BitVector a = BitVector::FromString("101");
  const BitVector b = BitVector::FromString("0110");
  ASSERT_TRUE(SaveBitVector(stream, a).ok());
  ASSERT_TRUE(SaveBitVector(stream, b).ok());
  const auto la = LoadBitVector(stream);
  const auto lb = LoadBitVector(stream);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  EXPECT_EQ(*la, a);
  EXPECT_EQ(*lb, b);
}

}  // namespace
}  // namespace ebi
