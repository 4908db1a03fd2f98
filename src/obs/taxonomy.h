#pragma once
// Closed taxonomies as row tables, checked by the compiler.
//
// Each closed taxonomy is an enum with a kCount_ sentinel plus one
// constexpr RowTable (a std::array sized by kCount_), one row per enumerator
// in enum order: the enumerator (`id`), its kebab-case `name`, and whatever
// else it maps to. static_assert(obs::is_row_table(rows)) under each table
// makes it total: a forgotten row is value-initialised (id 0, null name)
// and fails, as does a row out of order or a null, non-kebab or repeated
// name. Accessors are lookups into the rows; a sweep list is the id column.

#include <array>
#include <cstddef>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pfact::obs {

template <class Enum>
inline constexpr std::size_t kCountOf = static_cast<std::size_t>(Enum::kCount_);

// A taxonomy's table: one Row per enumerator of Row::id's enum.
template <class Row>
using RowTable = std::array<Row, kCountOf<decltype(Row::id)>>;

template <class Enum>
struct NameRow {
  Enum id;
  const char* name;
};

// Non-empty, only [a-z0-9-], and no leading or trailing dash.
constexpr bool is_kebab_name(const char* s) {
  if (s == nullptr) return false;
  const std::string_view v(s);
  return !v.empty() && v.front() != '-' && v.back() != '-' &&
         v.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-") ==
             std::string_view::npos;
}

// rows[i].id == i, and every name valid (kebab-case unless the table names
// another rule) and unique within the table.
template <class Row, std::size_t N>
constexpr bool is_row_table(const std::array<Row, N>& rows,
                            bool (*valid_name)(const char*) = is_kebab_name) {
  for (std::size_t i = 0; i < N; ++i) {
    if (static_cast<std::size_t>(rows[i].id) != i) return false;
    if (!valid_name(rows[i].name)) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (std::string_view(rows[i].name) == rows[j].name) return false;
    }
  }
  return true;
}

// No name in both tables (both already pass is_row_table).
template <class RowA, std::size_t NA, class RowB, std::size_t NB>
constexpr bool names_disjoint(const std::array<RowA, NA>& a,
                              const std::array<RowB, NB>& b) {
  for (const RowA& x : a) {
    for (const RowB& y : b) {
      if (std::string_view(x.name) == y.name) return false;
    }
  }
  return true;
}

// Column `column` of the row for `id`, or `fallback` for an out-of-range
// ordinal (bytes that were never an enumerator).
template <class Row, std::size_t N, class T>
constexpr T lookup(const std::array<Row, N>& rows, decltype(Row::id) id,
                   T Row::*column, std::type_identity_t<T> fallback) {
  const auto i = static_cast<std::size_t>(id);
  return i < N ? rows[i].*column : fallback;
}

template <class Row, std::size_t N>
constexpr const char* name_of(const std::array<Row, N>& rows,
                              decltype(Row::id) id) {
  return lookup(rows, id, &Row::name, "?");
}

// The sweep list: the id column of `rows` from row `first` on.
template <const auto& rows, std::size_t first = 0>
const auto& sweep_of() {
  static const auto ids = [] {
    std::vector<decltype(rows[0].id)> out;
    for (auto i = first; i < rows.size(); ++i) out.push_back(rows[i].id);
    return out;
  }();
  return ids;
}

}  // namespace pfact::obs
