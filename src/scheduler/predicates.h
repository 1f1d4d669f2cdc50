// Scheduling predicates (filters) and priorities (scoring), mirroring the
// default kube-scheduler's Filter/Score phases for the features this stack
// uses: resource fit, node selectors, taints/tolerations, readiness, and
// inter-Pod (anti-)affinity — the feature Fig. 6 of the paper uses to
// contrast vNodes with virtual-kubelet nodes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/types.h"

namespace vc::scheduler {

// Snapshot of one node plus the residents a filter must see, built per
// scheduling cycle from the scheduler's assignment cache. `pods` holds every
// resident only when the incoming Pod has affinity terms; otherwise just the
// residents with anti-affinity terms (symmetry). The baseline throughput
// curve of Fig. 9(b) bends through CostModel::per_resident_pod, not here.
struct NodeInfo {
  std::shared_ptr<const api::Node> node;
  std::vector<std::shared_ptr<const api::Pod>> pods;  // pods bound here
  api::ResourceList requested;                        // sum of pod requests

  api::ResourceList Free() const {
    api::ResourceList f = node->status.allocatable;
    f -= requested;
    return f;
  }
};

// Builds NodeInfos from cache snapshots; pods without nodeName are ignored.
std::map<std::string, NodeInfo> BuildNodeInfos(
    const std::vector<std::shared_ptr<const api::Node>>& nodes,
    const std::vector<std::shared_ptr<const api::Pod>>& pods);

// Returns empty string if the node passes all filters, else a human-readable
// reason (aggregated into FailedScheduling events).
std::string FilterNode(const api::Pod& pod, const NodeInfo& info);

// Individual predicates, exposed for unit tests.
bool PodFitsResources(const api::Pod& pod, const NodeInfo& info);
bool PodMatchesNodeSelector(const api::Pod& pod, const api::Node& node);
bool PodToleratesTaints(const api::Pod& pod, const api::Node& node);
bool NodeIsSchedulable(const api::Node& node);
// Symmetric anti-affinity: the incoming pod's terms against resident pods AND
// resident pods' terms against the incoming pod.
bool PassesAntiAffinity(const api::Pod& pod, const NodeInfo& info);
bool PassesAffinity(const api::Pod& pod, const NodeInfo& info);

// Least-allocated scoring in [0, 100]: more free resources → higher score.
double ScoreNode(const api::Pod& pod, const NodeInfo& info);

}  // namespace vc::scheduler
