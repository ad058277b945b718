// Experiment B6 (§4 online adaptation): the distributed protocol — every
// processor deciding from (i, j, k, n) plus its children's subtree ends and
// observed arrivals only — must emit the very same global schedule as the
// offline ConcurrentUpDown construction.
#include <cstdio>
#include <functional>

#include "gossip/concurrent_updown.h"
#include "gossip/online.h"
#include "graph/generators.h"
#include "graph/named.h"
#include "model/validator.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "support/table.h"

int main() {
  using namespace mg;
  Rng rng(99);
  const std::vector<std::pair<std::string, graph::Graph>> graphs = {
      {"fig4", graph::fig4_network()},
      {"line 41", graph::path(41)},
      {"star 64", graph::star(64)},
      {"grid 9x9", graph::grid(9, 9)},
      {"hypercube 7", graph::hypercube(7)},
      {"random tree 200", graph::random_tree(200, rng)},
      {"random gnp 150", graph::random_connected_gnp(150, 0.04, rng)},
  };

  TextTable table;
  table.new_row();
  for (const char* h : {"network", "n", "r", "rounds", "identical to offline",
                        "offline build ms", "online run ms"}) {
    table.cell(std::string(h));
  }

  bool all_ok = true;
  for (const auto& [name, g] : graphs) {
    const auto instance = gossip::Instance::from_network(g);
    Stopwatch offline_clock;
    const auto offline = gossip::concurrent_updown(instance);
    const double offline_ms = offline_clock.millis();
    Stopwatch online_clock;
    const auto online = gossip::run_online(instance);
    const double online_ms = online_clock.millis();
    const bool same = model::equivalent(offline, online);
    const auto report = model::validate_schedule(
        instance.tree().as_graph(), online, instance.initial());
    all_ok = all_ok && same && report.ok;

    table.new_row();
    table.cell(name);
    table.cell(static_cast<std::size_t>(g.vertex_count()));
    table.cell(static_cast<std::size_t>(instance.radius()));
    table.cell(online.total_time());
    table.cell(std::string(same ? "yes" : "NO"));
    table.cell(offline_ms, 3);
    table.cell(online_ms, 3);
  }

  std::printf(
      "B6 / §4: online (local-information) protocol vs offline schedule\n\n"
      "%s\nall identical and valid: %s\n",
      table.render().c_str(), all_ok ? "yes" : "NO");
  return all_ok ? 0 : 1;
}
