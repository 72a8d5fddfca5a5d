#include "cache/cursor.h"

#include <set>

#include "common/str_util.h"
#include "obs/metrics.h"

namespace xnfdb {

namespace {

// Stable handle, looked up once per process (see obs/metrics.h).
obs::Counter* FetchCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("cache.cursor.fetches");
  return c;
}

}  // namespace

bool IndependentCursor::Next() {
  while (pos_ < component_->size()) {
    CachedRow* row = component_->row(pos_++);
    if (row->deleted) continue;
    current_ = row;
    FetchCounter()->Increment();
    return true;
  }
  current_ = nullptr;
  return false;
}

void DependentCursor::Rebind(const CachedRow* anchor) {
  anchor_ = anchor;
  pos_ = 0;
  current_ = nullptr;
  swizzled_ = nullptr;
  tids_ = nullptr;
  tid_component_ = nullptr;
  if (anchor_ == nullptr) return;
  if (workspace_->options().swizzle) {
    swizzled_ = direction_ == Direction::kChildren
                    ? workspace_->SwizzledChildren(anchor_,
                                                   relationship_->index())
                    : workspace_->SwizzledParents(anchor_,
                                                  relationship_->index());
    return;
  }
  // Unswizzled navigation: tuple-id lists + hash lookups. Only binary
  // relationships can resolve the partner component unambiguously. The
  // tid lists are keyed by tid alone, so an anchor outside the anchoring
  // partner component has no neighbours (as with swizzled pointers).
  if (relationship_->partner_names().size() != 2) return;
  const bool children = direction_ == Direction::kChildren;
  if (!IdentEquals(anchor_->component->name(),
                   relationship_->partner_names()[children ? 0 : 1])) {
    return;
  }
  Result<ComponentTable*> comp =
      workspace_->component(relationship_->partner_names()[children ? 1 : 0]);
  if (!comp.ok()) return;
  tid_component_ = comp.value();
  tids_ = children ? relationship_->ChildTids(anchor_->tid)
                   : relationship_->ParentTids(anchor_->tid);
}

bool DependentCursor::Next() {
  if (swizzled_ != nullptr) {
    static obs::Counter* swizzled_steps =
        obs::MetricsRegistry::Default().GetCounter(
            "cache.cursor.swizzled_steps");
    while (pos_ < swizzled_->size()) {
      CachedRow* row = (*swizzled_)[pos_++];
      swizzled_steps->Increment();
      if (row->deleted) continue;
      current_ = row;
      FetchCounter()->Increment();
      return true;
    }
    current_ = nullptr;
    return false;
  }
  if (tids_ != nullptr) {
    // Unswizzled navigation pays a hash lookup per step; FindByTid counts
    // it under cache.lookup.{hits,misses}.
    while (pos_ < tids_->size()) {
      CachedRow* row = tid_component_->FindByTid((*tids_)[pos_++]);
      if (row == nullptr || row->deleted) continue;
      current_ = row;
      FetchCounter()->Increment();
      return true;
    }
  }
  current_ = nullptr;
  return false;
}

namespace {

Result<std::vector<CachedRow*>> WalkPath(Workspace* workspace,
                                         std::vector<CachedRow*> frontier,
                                         const std::vector<std::string>& steps,
                                         size_t step_idx,
                                         const std::string& current_comp) {
  std::string comp_name = current_comp;
  std::vector<CachedRow*> current = std::move(frontier);
  size_t i = step_idx;
  while (i < steps.size()) {
    // Expect: relationship, then its child component.
    XNFDB_ASSIGN_OR_RETURN(Relationship * rel,
                           workspace->relationship(steps[i]));
    if (!IdentEquals(rel->parent_name(), comp_name)) {
      return Status::InvalidArgument(
          "path step " + steps[i] + " does not start at component " +
          comp_name);
    }
    if (i + 1 >= steps.size()) {
      return Status::InvalidArgument(
          "path expression must end with a component name");
    }
    const std::string& target = steps[i + 1];
    bool is_child = false;
    for (const std::string& c : rel->partner_names()) {
      if (IdentEquals(c, target)) is_child = true;
    }
    if (!is_child) {
      return Status::InvalidArgument("component " + target +
                                     " is not a partner of relationship " +
                                     rel->name());
    }
    XNFDB_ASSIGN_OR_RETURN(ComponentTable * target_comp,
                           workspace->component(target));
    std::set<CachedRow*> next;
    for (CachedRow* row : current) {
      DependentCursor cursor(workspace, rel, row);
      while (cursor.Next()) {
        if (cursor.row()->component == target_comp) next.insert(cursor.row());
      }
    }
    current.assign(next.begin(), next.end());
    comp_name = target;
    i += 2;
  }
  return current;
}

}  // namespace

Result<std::vector<CachedRow*>> EvalPath(Workspace* workspace,
                                         const std::string& path) {
  std::vector<std::string> steps = Split(path, '.');
  if (steps.empty()) return Status::InvalidArgument("empty path expression");
  for (std::string& s : steps) s = Trim(s);
  XNFDB_ASSIGN_OR_RETURN(ComponentTable * root, workspace->component(steps[0]));
  std::vector<CachedRow*> frontier;
  IndependentCursor cursor(root);
  while (cursor.Next()) frontier.push_back(cursor.row());
  return WalkPath(workspace, std::move(frontier), steps, 1, root->name());
}

Result<std::vector<CachedRow*>> EvalPathFrom(Workspace* workspace,
                                             CachedRow* start,
                                             const std::string& path) {
  std::vector<std::string> steps = Split(path, '.');
  if (steps.empty()) return Status::InvalidArgument("empty path expression");
  for (std::string& s : steps) s = Trim(s);
  return WalkPath(workspace, {start}, steps, 0, start->component->name());
}

}  // namespace xnfdb
