// The row-table checks of src/obs/taxonomy.h, shown to bite. Each closed
// taxonomy's rows sit under static_assert(obs::is_row_table(rows)), so a
// defective table is a compile error, not a test failure. This file feeds
// the same predicates one table per defect — a missing row, two swapped
// rows, a duplicate, non-kebab or null name, and a counter name reused by a
// histogram — and static_asserts that each is rejected while a good table
// is accepted. The runtime EXPECTs repeat the verdicts so each case is also
// a named test in the report.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "obs/taxonomy.h"

namespace pfact::obs {
namespace {

enum class Color { kRed, kGreen, kBlue, kCount_ };
using ColorRows = std::array<NameRow<Color>, kCountOf<Color>>;

constexpr ColorRows kGood = {{
    {Color::kRed, "red"},
    {Color::kGreen, "green"},
    {Color::kBlue, "sky-blue-2"},
}};

// kBlue's row was forgotten: the array still has kCount_ slots, and the
// last one is value-initialised (id 0, null name).
constexpr ColorRows kMissingRow = {{
    {Color::kRed, "red"},
    {Color::kGreen, "green"},
}};

constexpr ColorRows kSwapped = {{
    {Color::kRed, "red"},
    {Color::kBlue, "blue"},
    {Color::kGreen, "green"},
}};

constexpr ColorRows kDuplicate = {{
    {Color::kRed, "red"},
    {Color::kGreen, "green"},
    {Color::kBlue, "green"},
}};

constexpr ColorRows kNullName = {{
    {Color::kRed, "red"},
    {Color::kGreen, nullptr},
    {Color::kBlue, "blue"},
}};

constexpr ColorRows with_blue_named(const char* name) {
  return {{
      {Color::kRed, "red"},
      {Color::kGreen, "green"},
      {Color::kBlue, name},
  }};
}

// Two tables sharing one JSON namespace, like Counter and Histogram.
enum class Spread { kWide, kCount_ };
constexpr std::array<NameRow<Spread>, kCountOf<Spread>> kOwnSpreadName = {{
    {Spread::kWide, "wide"},
}};
constexpr std::array<NameRow<Spread>, kCountOf<Spread>> kReusedName = {{
    {Spread::kWide, "green"},
}};

static_assert(is_row_table(kGood));
static_assert(!is_row_table(kMissingRow));
static_assert(!is_row_table(kSwapped));
static_assert(!is_row_table(kDuplicate));
static_assert(!is_row_table(kNullName));
static_assert(!is_row_table(with_blue_named("Blue")));
static_assert(!is_row_table(with_blue_named("sky_blue")));
static_assert(!is_row_table(with_blue_named("-blue")));
static_assert(!is_row_table(with_blue_named("blue-")));
static_assert(!is_row_table(with_blue_named("")));
static_assert(is_row_table(kOwnSpreadName) && is_row_table(kReusedName));
static_assert(names_disjoint(kGood, kOwnSpreadName));
static_assert(!names_disjoint(kGood, kReusedName));

TEST(RowTable, AcceptsAWellFormedTable) {
  EXPECT_TRUE(is_row_table(kGood));
  EXPECT_TRUE(names_disjoint(kGood, kOwnSpreadName));
}

TEST(RowTable, RejectsAMissingRow) {
  EXPECT_FALSE(is_row_table(kMissingRow));
  EXPECT_EQ(kMissingRow[2].name, nullptr);  // the value-initialised slot
}

TEST(RowTable, RejectsSwappedRows) {
  EXPECT_FALSE(is_row_table(kSwapped));
}

TEST(RowTable, RejectsADuplicateName) {
  EXPECT_FALSE(is_row_table(kDuplicate));
}

TEST(RowTable, RejectsANonKebabName) {
  for (const char* name : {"Blue", "sky_blue", "-blue", "blue-", ""}) {
    EXPECT_FALSE(is_row_table(with_blue_named(name))) << '"' << name << '"';
  }
}

TEST(RowTable, RejectsANullName) {
  EXPECT_FALSE(is_row_table(kNullName));
}

TEST(RowTable, RejectsACounterNameReusedByAHistogram) {
  EXPECT_FALSE(names_disjoint(kGood, kReusedName));
}

TEST(RowTable, SweepIsTheIdColumnInEnumOrder) {
  EXPECT_EQ(sweep_of<kGood>(),
            (std::vector<Color>{Color::kRed, Color::kGreen, Color::kBlue}));
  // A sweep that leaves out a leading kNone-style row.
  EXPECT_EQ((sweep_of<kGood, 1>()),
            (std::vector<Color>{Color::kGreen, Color::kBlue}));
}

TEST(RowTable, LookupFallsBackForAnOutOfRangeOrdinal) {
  EXPECT_STREQ(name_of(kGood, Color::kBlue), "sky-blue-2");
  EXPECT_STREQ(name_of(kGood, Color::kCount_), "?");
  EXPECT_STREQ(name_of(kGood, static_cast<Color>(99)), "?");
  EXPECT_EQ(lookup(kGood, static_cast<Color>(99), &NameRow<Color>::id,
                   Color::kRed),
            Color::kRed);
}

}  // namespace
}  // namespace pfact::obs
