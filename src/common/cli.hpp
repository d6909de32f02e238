/**
 * @file
 * The drivers' one command-line front end: a table of flags, each a
 * name, a value kind, one help line and a handler, parsed in one
 * strict left-to-right pass over argv. Flag families register
 * themselves into the table (sweep::addCampaignFlags,
 * obs::addObsFlags, Selection::addFlags), and --help is rendered
 * from it.
 *
 * Decoding is strict: an unknown argument, a missing or empty value,
 * a value on a flag that takes none, or a malformed count (through
 * parseCount()) exits 1 with a reason naming the argument.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/log.hpp"

namespace reno::cli
{

/** How an entry takes its value. */
enum class Value {
    None,        //!< --flag
    Required,    //!< --flag V or --flag=V
    Optional,    //!< --flag or --flag=V (a value only after '=')
    Positional,  //!< a bare argument (one not starting with '-')
};

/** Receives the value: "" for a None flag and for an Optional flag
 *  given without '='; never "" otherwise. */
using Handler = std::function<void(const std::string &value)>;

class Parser
{
  public:
    /**
     * Register an entry. @p name is the spelling --help shows: the
     * flag and its value placeholder ("--jobs N", "--progress[=FILE]",
     * "--cpa"), or, for a Positional entry, the placeholder alone
     * ("FILE"). Handlers run in argv order, once per occurrence.
     */
    void add(std::string name, Value kind, std::string help,
             Handler handler);

    /** A None flag that sets @p *on. */
    void flag(std::string name, std::string help, bool *on);

    /** A Required flag that stores its value in @p *out. */
    void text(std::string name, std::string help, std::string *out);

    /** A Required count in [@p min, @p max], through parseCount(). */
    template <typename T>
    void
    count(std::string name, std::string help, T *out,
          std::uint64_t min = 1,
          std::uint64_t max = std::numeric_limits<T>::max())
    {
        add(name, Value::Required, std::move(help),
            [flag = flagOf(name), out, min, max](const std::string &v) {
                *out = static_cast<T>(parseCount(flag.c_str(), v, min, max));
            });
    }

    /** Run the handlers over argv[1..argc); --help or -h prints the
     *  usage line and one line per entry, then exits 0. */
    void parse(int argc, char **argv) const;

  private:
    struct Entry {
        std::string flag;  //!< "--jobs"; "" for a Positional entry
        std::string name;
        Value kind;
        std::string help;
        Handler handler;
    };

    /** The flag spelled by @p name: up to the first ' ' or '['. */
    static std::string flagOf(const std::string &name);

    std::string renderHelp(const char *argv0) const;

    std::vector<Entry> entries_;
};

} // namespace reno::cli
