#include "lint/scrape.h"

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

}  // namespace pfact_lint
