/**
 * @file
 * The campaign drivers' shared selection flags -- which workloads,
 * which configurations, which report -- registered into a
 * cli::Parser and resolved after the parse through selectWorkloads()
 * and configsByName():
 *
 *   --suite S, --workload NAME, --workloads GLOB, --filter SUBSTR,
 *   --config NAME, --width 4|6, --cores N, --report table|json|csv,
 *   --list, --list-configs, --list-suites
 */
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "sweep/reporter.hpp"

namespace reno
{

namespace cli
{
class Parser;
}

class Selection
{
  public:
    void addFlags(cli::Parser &parser);

    /** Print the listing a --list* flag asked for; true if one did
     *  (the driver then exits 0 without running anything). */
    bool printListing() const;

    /** The selected workloads; fatal() when none. */
    std::vector<const Workload *> workloads() const;

    /** The --config names (default BASE, RENO) at --width, on
     *  --cores cores; fatal() on an unknown name. */
    std::vector<NamedConfig> configs() const;

    sweep::ReportFormat format() const { return format_; }

  private:
    std::string suite_ = "all";
    std::vector<std::string> workloadNames_;
    std::string glob_;
    std::string filter_;
    std::vector<std::string> configNames_;
    CoreParams base_ = CoreParams::fourWide();  //!< --width
    unsigned cores_ = 1;
    sweep::ReportFormat format_ = sweep::ReportFormat::Table;
    std::string (*listing_)() = nullptr;
};

} // namespace reno
