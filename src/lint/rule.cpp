#include "lint/rule.hpp"

#include <algorithm>
#include <utility>

namespace alert::analysis_tools {

void Sink::emit(const RuleInfo& rule, const FileData& file, std::size_t line,
                std::size_t column, std::string message) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (file.waived(line, rule.id)) {
    ++waived_;
    used_.emplace(file.rel_path, line, rule.id);
    return;
  }
  findings_.push_back(
      {rule.id, file.rel_path, line, column, std::move(message)});
}

void Sink::flag_stale_waivers(const std::vector<FileData>& files,
                              const std::set<std::string>& unjudged) {
  std::lock_guard<std::mutex> lk(mutex_);
  for (const FileData& f : files) {
    for (const auto& [line, ids] : f.waivers) {
      for (const std::string& id : ids) {
        if (unjudged.count(id) != 0 ||
            used_.count({f.rel_path, line, id}) != 0) {
          continue;
        }
        findings_.push_back(
            {stale_waiver_rule().id, f.rel_path, line, 1,
             "waiver allow(" + id +
                 ") suppresses no finding on this line — delete it"});
      }
    }
  }
}

std::vector<Finding> Sink::take() {
  std::lock_guard<std::mutex> lk(mutex_);
  std::sort(findings_.begin(), findings_.end());
  findings_.erase(std::unique(findings_.begin(), findings_.end()),
                  findings_.end());
  return std::move(findings_);
}

const RuleInfo& stale_waiver_rule() {
  static const RuleInfo kInfo{"stale-waiver",
                              "inline waiver that suppresses nothing"};
  return kInfo;
}

}  // namespace alert::analysis_tools
