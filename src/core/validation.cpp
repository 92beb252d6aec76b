#include "core/validation.hpp"

#include <algorithm>
#include <sstream>

namespace mpleo::core {

bool has_errors(const std::vector<ConfigIssue>& issues) noexcept {
  return std::any_of(issues.begin(), issues.end(), [](const ConfigIssue& issue) {
    return issue.severity == IssueSeverity::kError;
  });
}

std::string format_issues(const std::string& context,
                          const std::vector<ConfigIssue>& issues) {
  if (issues.empty()) return {};
  std::ostringstream os;
  os << context << ": " << issues.size() << " invalid field(s)";
  for (const ConfigIssue& issue : issues) {
    os << "\n  " << issue.field << ": " << issue.message;
  }
  return os.str();
}

void throw_if_invalid(const std::string& context,
                      const std::vector<ConfigIssue>& issues) {
  if (has_errors(issues)) throw std::invalid_argument(format_issues(context, issues));
}

}  // namespace mpleo::core
