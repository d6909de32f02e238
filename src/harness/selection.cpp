#include "harness/selection.hpp"

#include <cstdio>

#include "common/cli.hpp"
#include "common/log.hpp"

namespace reno
{

void
Selection::addFlags(cli::Parser &parser)
{
    parser.text("--suite S",
                "spec|media|synth|mem|branch|multi|all (default all ="
                " the paper suites)",
                &suite_);
    parser.add("--workload NAME", cli::Value::Required,
               "one workload (repeatable)",
               [this](const std::string &v) {
                   workloadNames_.push_back(v);
               });
    parser.text("--workloads GLOB",
                "workloads matching a glob, from every suite (e.g. "
                "'mem.stream.*')",
                &glob_);
    parser.text("--filter SUBSTR", "keep matching workload names",
                &filter_);
    parser.add("--config NAME", cli::Value::Required,
               "preset with optional /variants (repeatable; default "
               "BASE, RENO; see --list-configs)",
               [this](const std::string &v) {
                   configNames_.push_back(v);
               });
    parser.add("--width W", cli::Value::Required,
               "machine width, 4 or 6 (default 4)",
               [this](const std::string &v) { base_ = machineOfWidth(v); });
    parser.count("--cores N",
                 strprintf("run every config on an N-core MESI "
                           "System (1..%u; a /Nc suffix on each name)",
                           SysParams::MaxCores),
                 &cores_, 1, SysParams::MaxCores);
    parser.add("--report FORMAT", cli::Value::Required,
               "table|json|csv (default table)",
               [this](const std::string &v) {
                   const auto f = sweep::reportFormatFromName(v);
                   if (!f)
                       fatal("--report expects table, json or csv, "
                             "got '%s'",
                             v.c_str());
                   format_ = *f;
               });
    parser.add("--list", cli::Value::None,
               "list every workload and config, then exit",
               [this](const std::string &) {
                   listing_ = [] {
                       return renderWorkloadList() + renderConfigList();
                   };
               });
    parser.add("--list-configs", cli::Value::None,
               "list configuration presets and variants, then exit",
               [this](const std::string &) {
                   listing_ = renderConfigList;
               });
    parser.add("--list-suites", cli::Value::None,
               "list workload suites, then exit",
               [this](const std::string &) {
                   listing_ = renderSuiteList;
               });
}

bool
Selection::printListing() const
{
    if (listing_)
        std::fputs(listing_().c_str(), stdout);
    return listing_ != nullptr;
}

std::vector<const Workload *>
Selection::workloads() const
{
    return selectWorkloads(suite_, workloadNames_, glob_, filter_);
}

std::vector<NamedConfig>
Selection::configs() const
{
    return configsByName(configNames_.empty()
                             ? std::vector<std::string>{"BASE", "RENO"}
                             : configNames_,
                         base_, cores_);
}

} // namespace reno
