#include "lint/scrape.h"

#include <cctype>
#include <regex>

namespace pfact_lint {

std::vector<std::string> parse_enum(const std::string& src,
                                    const std::string& name) {
  std::vector<std::string> out;
  const std::regex head("enum\\s+class\\s+" + name + "\\b[^{]*\\{");
  std::smatch m;
  if (!std::regex_search(src, m, head)) return out;
  const std::size_t begin = static_cast<std::size_t>(m.position()) + m.length();
  const std::size_t end = src.find("};", begin);
  if (end == std::string::npos) return out;
  const std::string body = src.substr(begin, end - begin);
  const std::regex enumerator("(?:^|[\\n,{])\\s*(k[A-Za-z0-9_]+)\\s*[,=}]");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), enumerator);
       it != std::sregex_iterator(); ++it) {
    const std::string id = (*it)[1].str();
    if (id != "kCount_") out.push_back(id);
  }
  return out;
}

std::string function_body(const std::string& src, const std::string& name) {
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  for (std::size_t at = src.find(name); at != std::string::npos;
       at = src.find(name, at + 1)) {
    if (at > 0 && is_ident(src[at - 1])) continue;
    std::size_t after = at + name.size();
    while (after < src.size() &&
           std::isspace(static_cast<unsigned char>(src[after]))) {
      ++after;
    }
    if (after >= src.size() || src[after] != '(') continue;
    const std::size_t open = src.find('{', after);
    const std::size_t semi = src.find(';', after);
    if (open == std::string::npos || (semi != std::string::npos && semi < open))
      continue;
    int depth = 0;
    for (std::size_t i = open; i < src.size(); ++i) {
      if (src[i] == '{') ++depth;
      if (src[i] == '}' && --depth == 0) {
        return src.substr(open, i - open + 1);
      }
    }
    return std::string();
  }
  return std::string();
}

}  // namespace pfact_lint
