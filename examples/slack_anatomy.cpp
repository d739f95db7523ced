// Figure 1 in code: where does the time go when a host talks to a GPU
// through a traditional PCIe link vs a row-scale / cluster-scale CDI
// network?
//
// Prints the latency anatomy of one 16 MiB H2D transfer + one 1 ms kernel
// under three interconnects, and the slack <-> fibre-distance conversion.
#include <iostream>

#include "core/table.hpp"
#include "interconnect/link.hpp"

int main() {
  using namespace rsd;
  using namespace rsd::interconnect;

  const Bytes payload = 16 * kMiB;

  struct Config {
    const char* name;
    CdiNetworkParams net;
    bool traditional;
  };
  CdiNetworkParams row;  // defaults: 50 m of fibre, 2 hops
  CdiNetworkParams cluster = row;
  cluster.fibre_km = 20.0;
  cluster.switch_hops = 6;
  const Config configs[] = {
      {"traditional (PCIe gen4 x16)", row, true},
      {"row-scale CDI (~50 m)", row, false},
      {"cluster-scale CDI (20 km)", cluster, false},
  };

  Table table{"Interconnect", "Slack (one-way)", "Link latency", "16 MiB transfer",
              "Reach [km]"};
  for (const auto& cfg : configs) {
    const LinkParams link = cfg.traditional ? make_pcie_gen4_x16() : make_cdi_link(cfg.net);
    const SimDuration slack = cfg.traditional ? SimDuration::zero() : cfg.net.slack();
    table.add_row(cfg.name, format_duration(slack), format_duration(link.latency),
                  format_duration(transfer_time(link, payload)),
                  fmt_fixed(reach_km_for_slack(slack), 2));
  }
  table.print(std::cout);

  std::cout << "\nSlack anatomy of the cluster-scale path (per direction):\n"
            << "  2 x NIC traversal : " << format_duration(cluster.nic_latency * std::int64_t{2})
            << "\n"
            << "  " << cluster.switch_hops << " x switch hop   : "
            << format_duration(cluster.per_hop_latency * std::int64_t{cluster.switch_hops})
            << "\n"
            << "  " << cluster.fibre_km
            << " km of fibre   : " << format_duration(fibre_delay(cluster.fibre_km)) << "\n"
            << "  total slack       : " << format_duration(cluster.slack()) << "\n\n"
            << "The paper's headline conversion: 100 us of tolerated slack buys "
            << reach_km_for_slack(duration::microseconds(100.0))
            << " km of reach — datacenter scale, not just rack scale.\n";
  return 0;
}
