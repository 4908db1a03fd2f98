#pragma once
// House-style source scrapers — the line/regex layer under PL017.
//
// These parse the repo's own house style (clang-format'd, one enumerator per
// line), not arbitrary C++. That trade is deliberate: the checked files are
// part of this repo, and the fixtures pin the accepted shapes. Each function
// takes SCRUBBED text (comments blanked to spaces — SourceFile::scrub), so a
// function or enum name mentioned in prose can never hijack an anchor.

#include <string>
#include <vector>

namespace pfact_lint {

// Enumerators of `enum class <name>`, in declaration order, excluding the
// kCount_ sentinel.
std::vector<std::string> parse_enum(const std::string& src,
                                    const std::string& name);

}  // namespace pfact_lint
