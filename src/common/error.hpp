/**
 * @file
 * Error-reporting macros shared across all Choco-Q modules.
 *
 * Follows the gem5 fatal/panic split: CHOCOQ_FATAL is for conditions that
 * are the caller's fault (bad problem definition, invalid arguments) and
 * throws a std::runtime_error that API users may catch; CHOCOQ_ASSERT is
 * for internal invariants that should never fail regardless of input.
 */

#ifndef CHOCOQ_COMMON_ERROR_HPP
#define CHOCOQ_COMMON_ERROR_HPP

#include <sstream>
#include <stdexcept>
#include <string>

namespace chocoq
{

/** Exception type thrown for user-facing (recoverable) errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** Exception type thrown for violated internal invariants. */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &what_arg)
        : std::logic_error(what_arg)
    {}
};

} // namespace chocoq

/**
 * Throw a chocoq::FatalError with a streamed message. User's fault, so
 * the text is the message alone: it reaches remote clients verbatim
 * (wire error lines) and must read the same from every build.
 */
#define CHOCOQ_FATAL(msg)                                                   \
    do {                                                                    \
        std::ostringstream chocoq_oss_;                                     \
        chocoq_oss_ << "fatal: " << msg;                                    \
        throw chocoq::FatalError(chocoq_oss_.str());                        \
    } while (0)

/** Check an internal invariant; throws chocoq::InternalError on failure.
 * A bug report, so it names the source location. */
#define CHOCOQ_ASSERT(cond, msg)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::ostringstream chocoq_oss_;                                 \
            chocoq_oss_ << "internal error: " << msg << " [" << #cond       \
                        << "] (" << __FILE__ << ":" << __LINE__ << ")";     \
            throw chocoq::InternalError(chocoq_oss_.str());                 \
        }                                                                   \
    } while (0)

#endif // CHOCOQ_COMMON_ERROR_HPP
