/**
 * @file
 * A private scratch directory per test process. Every store, socket
 * and trace file a test writes goes under it, so two test runs at
 * once (two build trees, or one ctest -j) never share or delete each
 * other's files.
 */

#ifndef CISA_TESTS_TESTDIR_HH
#define CISA_TESTS_TESTDIR_HH

#include <ftw.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace cisa
{

/**
 * @p name inside this process's scratch directory, a fresh
 * mkdtemp directory under /tmp made on first use. The process that
 * made it removes it, with everything in it, at exit; forked
 * children leave it alone. Safe to call from static initializers.
 */
inline std::string
testPath(const std::string &name)
{
    static const std::string dir = [] {
        char tmpl[] = "/tmp/cisa_test_XXXXXX";
        if (!mkdtemp(tmpl)) {
            std::perror("mkdtemp");
            std::abort();
        }
        static std::string made = tmpl;
        static const pid_t owner = getpid();
        std::atexit([] {
            if (getpid() != owner)
                return;
            nftw(
                made.c_str(),
                [](const char *p, const struct stat *, int,
                   struct FTW *) { return std::remove(p); },
                16, FTW_DEPTH | FTW_PHYS);
        });
        return made;
    }();
    return dir + "/" + name;
}

} // namespace cisa

#endif // CISA_TESTS_TESTDIR_HH
