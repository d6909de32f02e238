#include "common/cli.hpp"

#include <cstdio>
#include <cstdlib>

namespace reno::cli
{

std::string
Parser::flagOf(const std::string &name)
{
    return name.substr(0, name.find_first_of(" ["));
}

void
Parser::add(std::string name, Value kind, std::string help,
            Handler handler)
{
    std::string flag = kind == Value::Positional ? "" : flagOf(name);
    entries_.push_back({std::move(flag), std::move(name), kind,
                        std::move(help), std::move(handler)});
}

void
Parser::flag(std::string name, std::string help, bool *on)
{
    add(std::move(name), Value::None, std::move(help),
        [on](const std::string &) { *on = true; });
}

void
Parser::text(std::string name, std::string help, std::string *out)
{
    add(std::move(name), Value::Required, std::move(help),
        [out](const std::string &v) { *out = v; });
}

void
Parser::parse(int argc, char **argv) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(renderHelp(argv[0]).c_str(), stdout);
            std::exit(0);
        }
        const bool is_flag = arg.rfind('-', 0) == 0;
        const std::size_t eq = is_flag ? arg.find('=') : arg.npos;
        const std::string flag = arg.substr(0, eq);
        const Entry *entry = nullptr;
        for (const Entry &e : entries_) {
            if (is_flag ? e.flag == flag : e.kind == Value::Positional)
                entry = &e;
        }
        if (!entry)
            fatal("unknown argument '%s' (try --help)", arg.c_str());

        std::string value;
        if (entry->kind == Value::Positional) {
            value = arg;
        } else if (eq != arg.npos) {
            if (entry->kind == Value::None)
                fatal("%s takes no value, got '%s'", flag.c_str(),
                      arg.c_str());
            value = arg.substr(eq + 1);
            if (value.empty())
                fatal("%s expects a value", arg.c_str());
        } else if (entry->kind == Value::Required) {
            // A following flag is not a value: `--cache-dir --jobs 4`
            // is a missing directory, not one named "--jobs".
            if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0)
                fatal("%s expects a value", flag.c_str());
            value = argv[++i];
            if (value.empty())
                fatal("%s expects a value", flag.c_str());
        }
        entry->handler(value);
    }
}

std::string
Parser::renderHelp(const char *argv0) const
{
    std::string usage = strprintf("usage: %s [options]", argv0);
    std::string lines;
    for (const Entry &e : entries_) {
        if (e.kind == Value::Positional)
            usage += " [" + e.name + "]";
        lines += strprintf("  %-24s %s\n", e.name.c_str(),
                           e.help.c_str());
    }
    return usage + "\n\n" + lines +
           strprintf("  %-24s %s\n", "--help", "print this help and exit");
}

} // namespace reno::cli
