#include "fault/overlay.hpp"

#include "util/error.hpp"

namespace gcube {

void FaultOverlay::attach(const Topology& topo) {
  topo_ = &topo;
  const std::uint64_t nodes = topo.node_count();
  full_.resize(nodes);
  for (NodeId u = 0; u < nodes; ++u) full_[u] = topo.link_mask(u);
  usable_ = full_;
  clean_.reset(nodes);
  clean_.set_all();
  nodes_seen_ = 0;
  links_seen_ = 0;
  version_seen_ = ~std::uint64_t{0};
  generation_seen_ = 0;
}

void FaultOverlay::apply_node(NodeId v) {
  if (v >= usable_.size()) return;  // foreign fault entry: not our topology
  // A faulty node kills all of its incident links, in both directions.
  std::uint32_t links = full_[v];
  usable_[v] = 0;
  clean_.assign(v, full_[v] == 0);
  while (links != 0) {
    const Dim c = lsb_index(links);
    links &= links - 1;
    const NodeId w = flip_bit(v, c);
    usable_[w] &= ~(std::uint32_t{1} << c);
    reclean(w);
  }
}

void FaultOverlay::apply_link(LinkId l) {
  if (l.lo >= usable_.size() || l.hi() >= usable_.size()) return;
  const std::uint32_t bit = std::uint32_t{1} << l.dim;
  usable_[l.lo] &= ~bit;
  usable_[l.hi()] &= ~bit;
  reclean(l.lo);
  reclean(l.hi());
}

void FaultOverlay::rebuild(const FaultSet& faults) {
  usable_ = full_;
  clean_.set_all();
  nodes_seen_ = 0;
  links_seen_ = 0;
  for (const NodeId v : faults.faulty_nodes()) apply_node(v);
  for (const LinkId l : faults.faulty_links()) apply_link(l);
  nodes_seen_ = faults.faulty_nodes().size();
  links_seen_ = faults.faulty_links().size();
}

void FaultOverlay::refresh(const FaultSet& faults) {
  GCUBE_REQUIRE(topo_ != nullptr, "overlay refreshed before attach");
  if (version_seen_ == faults.version()) return;
  const std::vector<NodeId>& nodes = faults.faulty_nodes();
  const std::vector<LinkId>& links = faults.faulty_links();
  if (generation_seen_ != faults.generation()) {
    // Entries were discarded (clear() or a repair) since the last refresh:
    // the cursors no longer describe a prefix of the vectors, even if they
    // regrew past them, and removals cannot be replayed incrementally.
    rebuild(faults);
    generation_seen_ = faults.generation();
  } else {
    for (; nodes_seen_ < nodes.size(); ++nodes_seen_) {
      apply_node(nodes[nodes_seen_]);
    }
    for (; links_seen_ < links.size(); ++links_seen_) {
      apply_link(links[links_seen_]);
    }
  }
  version_seen_ = faults.version();
}

}  // namespace gcube
