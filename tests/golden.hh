/**
 * @file
 * Golden-file helpers shared by the suites that pin exported JSON
 * against tests/golden/. Regenerate after an intentional behaviour
 * change with FAMSIM_UPDATE_GOLDEN=1 and review the diff.
 */

#ifndef FAMSIM_TESTS_GOLDEN_HH
#define FAMSIM_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef FAMSIM_GOLDEN_DIR
#define FAMSIM_GOLDEN_DIR "tests/golden"
#endif

namespace famsim::test {

/** Path of the committed golden for @p name. */
inline std::string
goldenPath(const std::string& name)
{
    return std::string(FAMSIM_GOLDEN_DIR) + "/" + name + ".json";
}

/** Whole file as bytes; empty when it cannot be read. */
inline std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** True when FAMSIM_UPDATE_GOLDEN asks to rewrite goldens. */
inline bool
updateRequested()
{
    const char* env = std::getenv("FAMSIM_UPDATE_GOLDEN");
    return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/**
 * Expect @p actual to equal the golden @p name byte for byte, or
 * rewrite the golden (and skip) under FAMSIM_UPDATE_GOLDEN.
 */
inline void
expectGolden(const std::string& name, const std::string& actual)
{
    const std::string path = goldenPath(name);
    if (updateRequested()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write golden " << path;
        out << actual;
        GTEST_SKIP() << "golden updated: " << path;
    }
    const std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "missing golden " << path
        << " (regenerate with FAMSIM_UPDATE_GOLDEN=1)";
    EXPECT_EQ(expected, actual)
        << "'" << name
        << "' diverged from its golden; if intentional, regenerate "
           "with FAMSIM_UPDATE_GOLDEN=1 and commit the diff";
}

} // namespace famsim::test

#endif // FAMSIM_TESTS_GOLDEN_HH
