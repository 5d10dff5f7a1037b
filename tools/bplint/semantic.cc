/**
 * @file
 * Phase-2 semantic rules over the bplint source model (model.h):
 *
 *   must-check-io          an IoStatus-returning call whose result is
 *                          neither bound-and-read nor returned drops
 *                          an error on the floor — the crash-safe
 *                          checkpoint protocol is void if a status is
 *                          ignored. Explicit (void) casts still fire:
 *                          an intentional drop needs an allow comment
 *                          with a rationale.
 *   parallel-capture-race  any write (assignment, ++/--, non-const
 *                          member call, pass-by-non-const-ref) to a
 *                          by-reference-captured variable that is not
 *                          subscripted by a body-local index, inside
 *                          a parallelFor/parallelFor2d body.
 *   hot-loop-alloc         no Tensor construction or heap allocation
 *                          inside parallelFor bodies or ScopedKernel
 *                          regions — an allocation there runs once per
 *                          chunk or kernel call instead of once.
 *   env-registry           every BERTPROF_* knob read in src/ must
 *                          appear in the README table and vice versa.
 *   include-dag            transitive layering over the real include
 *                          graph, plus include-cycle detection.
 */

#include "rules.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <sstream>

namespace bplint {

namespace {

bool
isSrcCc(const std::string &path)
{
    return !srcRelative(path).empty() && path.size() > 3 &&
           path.compare(path.size() - 3, 3, ".cc") == 0;
}

std::size_t
skipWs(const std::string &s, std::size_t i)
{
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i]))) {
        ++i;
    }
    return i;
}

/** Last non-ws offset strictly before `i`, or npos. */
std::size_t
prevNonWs(const std::string &s, std::size_t i)
{
    while (i > 0) {
        --i;
        if (!std::isspace(static_cast<unsigned char>(s[i])))
            return i;
    }
    return std::string::npos;
}

std::size_t
matchPairFwd(const std::string &s, std::size_t open, char oc, char cc)
{
    int depth = 1;
    for (std::size_t j = open + 1; j < s.size(); ++j) {
        if (s[j] == oc)
            ++depth;
        else if (s[j] == cc && --depth == 0)
            return j;
    }
    return std::string::npos;
}

/** Offset of the '[' matching the ']' at `close`, or npos. */
std::size_t
matchBack(const std::string &s, std::size_t close, char oc, char cc)
{
    int depth = 1;
    for (std::size_t j = close; j-- > 0;) {
        if (s[j] == cc)
            ++depth;
        else if (s[j] == oc && --depth == 0)
            return j;
    }
    return std::string::npos;
}

const std::set<std::string> &
cppKeywords()
{
    static const std::set<std::string> k = {
        "if",       "for",      "while",   "switch",  "catch",
        "return",   "sizeof",   "alignof", "decltype", "new",
        "delete",   "throw",    "static_cast", "const_cast",
        "dynamic_cast", "reinterpret_cast", "assert", "defined"};
    return k;
}

/** Type of `name` in a raw parameter list, or "". */
std::string
paramDeclType(const std::string &params, const std::string &name)
{
    int depth = 0;
    std::size_t start = 0;
    for (std::size_t j = 0; j <= params.size(); ++j) {
        const char c = j < params.size() ? params[j] : ',';
        if (c == '(' || c == '<' || c == '[')
            ++depth;
        else if (c == ')' || c == '>' || c == ']')
            --depth;
        if (c != ',' || depth > 0)
            continue;
        const auto toks = identTokens(params.substr(start, j - start));
        start = j + 1;
        if (toks.size() < 2 || toks.back() != name)
            continue;
        for (const auto &t : toks) {
            static const std::set<std::string> quals = {
                "const", "std", "unsigned", "signed", "volatile",
                "struct", "class"};
            if (!quals.count(t))
                return t == name ? "" : t;
        }
    }
    return "";
}

/**
 * Type of a local declaration of `name` in `body` before `before`,
 * or "". Statement-splitting heuristic shared with localDecls().
 */
std::string
localDeclType(const std::string &body, std::size_t before,
              const std::string &name)
{
    std::size_t start = 0;
    const std::size_t limit = std::min(before, body.size());
    for (std::size_t i = 0; i <= limit; ++i) {
        const char c = i < limit ? body[i] : ';';
        if (c != ';' && c != '{' && c != '}' && c != '(' && c != ')')
            continue;
        std::string stmt = body.substr(start, i - start);
        start = i + 1;
        const std::size_t eq = stmt.find('=');
        if (eq != std::string::npos)
            stmt = stmt.substr(0, eq);
        const auto toks = identTokens(stmt);
        if (toks.size() < 2 || toks.back() != name)
            continue;
        if (hasToken(stmt, "return"))
            continue;
        static const std::set<std::string> quals = {
            "const", "static", "thread_local", "constexpr", "std",
            "unsigned", "signed", "auto"};
        for (const auto &t : toks) {
            if (!quals.count(t))
                return t == name ? "" : t;
        }
    }
    return "";
}

/** Enclosing namespace-scope function definition for an offset. */
const FuncFact *
enclosingFunc(const TuModel &tu, std::size_t pos)
{
    const FuncFact *best = nullptr;
    for (const FuncFact &f : tu.funcs) {
        if (f.bodyBegin <= pos && pos < f.bodyEnd &&
            (!best || f.bodyBegin > best->bodyBegin)) {
            best = &f;
        }
    }
    return best;
}

/**
 * Resolve the declared type of identifier `name` used at stripped
 * offset `usePos`: enclosing function parameters, then body locals,
 * then enclosing class members (cross-TU), else "".
 */
std::string
resolveVarType(const ProjectModel &pm, const TuModel &tu,
               const FuncFact *fn, const std::string &name,
               std::size_t usePos)
{
    if (fn) {
        const std::string t = paramDeclType(fn->params, name);
        if (!t.empty())
            return t;
        const std::string l = localDeclType(
            tu.stripped.substr(fn->bodyBegin, fn->bodyEnd - fn->bodyBegin),
            usePos - fn->bodyBegin, name);
        if (!l.empty())
            return l;
        if (!fn->className.empty()) {
            const auto ci = pm.classes.find(fn->className);
            if (ci != pm.classes.end()) {
                const auto mi = ci->second.memberTypes.find(name);
                if (mi != ci->second.memberTypes.end())
                    return mi->second;
            }
        }
    }
    return "";
}

/** Read the identifier ending at offset `end` (exclusive); "" if none. */
std::string
identEndingAt(const std::string &s, std::size_t end, std::size_t *beginOut)
{
    std::size_t b = end;
    while (b > 0 && isIdentChar(s[b - 1]))
        --b;
    if (beginOut)
        *beginOut = b;
    return b < end ? s.substr(b, end - b) : "";
}

// ---------------------------------------------------------------------
// must-check-io
// ---------------------------------------------------------------------

struct CallSite {
    std::string callee;
    std::size_t calleeBegin = 0; ///< offset of the callee token
    std::size_t exprBegin = 0;   ///< start of the full call chain
    std::size_t rparen = 0;      ///< offset of the call's ')'
};

/**
 * Walk back over the receiver chain of a member call whose '.'/'->'
 * sits just before `calleeBegin`; returns the chain start offset.
 */
std::size_t
chainStart(const std::string &s, std::size_t calleeBegin)
{
    std::size_t i = calleeBegin;
    while (true) {
        std::size_t p = prevNonWs(s, i);
        if (p == std::string::npos)
            return i;
        if (s[p] == '.') {
            i = p;
        } else if (p > 0 && s[p] == '>' && s[p - 1] == '-') {
            i = p - 1;
        } else if (p > 0 && s[p] == ':' && s[p - 1] == ':') {
            i = p - 1;
        } else {
            return i;
        }
        // Walk over the preceding primary: `)` of a call, or an ident.
        p = prevNonWs(s, i);
        if (p == std::string::npos)
            return i;
        if (s[p] == ')') {
            const std::size_t lp = matchBack(s, p, '(', ')');
            if (lp == std::string::npos)
                return i;
            std::size_t b = 0;
            const std::string id = identEndingAt(s, lp, &b);
            if (id.empty()) {
                std::size_t ws = lp;
                while (ws > 0 && std::isspace(
                                     static_cast<unsigned char>(s[ws - 1])))
                    --ws;
                (void)identEndingAt(s, ws, &b);
                if (b == ws)
                    return i;
            }
            i = b;
        } else if (isIdentChar(s[p])) {
            std::size_t b = 0;
            (void)identEndingAt(s, p + 1, &b);
            i = b;
        } else {
            return i;
        }
    }
}

/** Resolve whether a call site returns IoStatus under the model. */
bool
returnsIoStatus(const ProjectModel &pm, const TuModel &tu,
                const FuncFact *fn, const std::string &s,
                const CallSite &cs)
{
    const std::size_t p = prevNonWs(s, cs.calleeBegin);
    const bool member =
        p != std::string::npos &&
        (s[p] == '.' || (p > 0 && s[p] == '>' && s[p - 1] == '-'));
    const bool qualified =
        p != std::string::npos && p > 0 && s[p] == ':' && s[p - 1] == ':';

    if (member) {
        // Resolve the receiver: a simple identifier, or C::method().
        const std::size_t dot = s[p] == '.' ? p : p - 1;
        std::size_t q = prevNonWs(s, dot);
        if (q == std::string::npos)
            return false;
        if (isIdentChar(s[q])) {
            std::size_t b = 0;
            const std::string recv = identEndingAt(s, q + 1, &b);
            // this->member()
            if (recv == "this" && fn && !fn->className.empty()) {
                const MethodFact *mf =
                    pm.method(fn->className, cs.callee);
                return mf && mf->returnsIoStatus;
            }
            const std::string type =
                resolveVarType(pm, tu, fn, recv, cs.calleeBegin);
            if (type.empty())
                return false;
            const MethodFact *mf = pm.method(type, cs.callee);
            return mf && mf->returnsIoStatus;
        }
        if (s[q] == ')') {
            // Receiver is a call: resolve its return type one level.
            const std::size_t lp = matchBack(s, q, '(', ')');
            if (lp == std::string::npos)
                return false;
            std::size_t b = 0;
            const std::string inner = identEndingAt(s, lp, &b);
            if (inner.empty())
                return false;
            std::string retType;
            const std::size_t ip = prevNonWs(s, b);
            if (ip != std::string::npos && ip > 0 && s[ip] == ':' &&
                s[ip - 1] == ':') {
                std::size_t cb = 0;
                const std::string cls =
                    identEndingAt(s, ip - 1, &cb);
                const MethodFact *mf = pm.method(cls, inner);
                if (mf)
                    retType = mf->retType;
            } else {
                const auto fi = pm.freeFns.find(inner);
                if (fi != pm.freeFns.end())
                    retType = fi->second.retType;
            }
            if (retType.empty())
                return false;
            const MethodFact *mf = pm.method(retType, cs.callee);
            return mf && mf->returnsIoStatus;
        }
        return false;
    }
    if (qualified) {
        std::size_t b = 0;
        const std::string qual = identEndingAt(s, p - 1, &b);
        const MethodFact *mf = pm.method(qual, cs.callee);
        if (mf)
            return mf->returnsIoStatus;
        // Namespace qualifier (bertprof::writeTextFile).
        const auto fi = pm.freeFns.find(cs.callee);
        return fi != pm.freeFns.end() && fi->second.returnsIoStatus;
    }
    // Unqualified: inside a method it may be a call on *this.
    if (fn && !fn->className.empty()) {
        const MethodFact *mf = pm.method(fn->className, cs.callee);
        if (mf)
            return mf->returnsIoStatus;
    }
    const auto fi = pm.freeFns.find(cs.callee);
    return fi != pm.freeFns.end() && fi->second.returnsIoStatus;
}

/** True when `name` reads as a class data member (cross-TU lookup). */
bool
looksLikeMember(const ProjectModel &pm, const FuncFact *fn,
                const std::string &name)
{
    if (!name.empty() && name.back() == '_')
        return true;
    if (fn && !fn->className.empty()) {
        const auto ci = pm.classes.find(fn->className);
        if (ci != pm.classes.end() &&
            ci->second.memberTypes.count(name)) {
            return true;
        }
    }
    return false;
}

} // namespace

void
checkMustCheckIo(const ProjectModel &pm, const TuModel &tu,
                 std::vector<Finding> &out)
{
    if (!isSrcCc(tu.path))
        return;
    const std::string &s = tu.stripped;

    for (const FuncFact &fn : tu.funcs) {
        for (std::size_t i = fn.bodyBegin; i < fn.bodyEnd;) {
            if (!isIdentChar(s[i]) ||
                std::isdigit(static_cast<unsigned char>(s[i]))) {
                ++i;
                continue;
            }
            const std::size_t b = i;
            while (i < fn.bodyEnd && isIdentChar(s[i]))
                ++i;
            const std::string tok = s.substr(b, i - b);
            if (cppKeywords().count(tok))
                continue;
            const std::size_t lp = skipWs(s, i);
            if (lp >= fn.bodyEnd || s[lp] != '(')
                continue;
            const std::size_t rp = matchPairFwd(s, lp, '(', ')');
            if (rp == std::string::npos || rp >= fn.bodyEnd)
                continue;

            CallSite cs;
            cs.callee = tok;
            cs.calleeBegin = b;
            cs.rparen = rp;
            if (!returnsIoStatus(pm, tu, &fn, s, cs))
                continue;

            // How is the result used? A member access chains it; any
            // other non-';' continuation embeds it in an expression.
            const std::size_t after = skipWs(s, rp + 1);
            if (after >= s.size())
                continue;
            if (s[after] == '.' ||
                (s[after] == '-' && after + 1 < s.size() &&
                 s[after + 1] == '>')) {
                continue; // chained, e.g. .ok()
            }
            if (s[after] != ';')
                continue; // subexpression: arg, condition, ternary...

            // Statement-final: inspect what precedes the call chain.
            cs.exprBegin = chainStart(s, b);
            std::size_t stmtStart = cs.exprBegin;
            while (stmtStart > fn.bodyBegin && s[stmtStart - 1] != ';' &&
                   s[stmtStart - 1] != '{' && s[stmtStart - 1] != '}') {
                --stmtStart;
            }
            const std::string prefix =
                s.substr(stmtStart, cs.exprBegin - stmtStart);
            const auto ptoks = identTokens(prefix);
            if (std::find(ptoks.begin(), ptoks.end(), "return") !=
                ptoks.end()) {
                continue;
            }
            // Bound to a variable? Find a depth-0 '=' in the prefix.
            std::size_t eq = std::string::npos;
            int depth = 0;
            for (std::size_t j = 0; j < prefix.size(); ++j) {
                const char c = prefix[j];
                if (c == '(' || c == '[')
                    ++depth;
                else if (c == ')' || c == ']')
                    --depth;
                else if (c == '=' && depth == 0 &&
                         (j + 1 >= prefix.size() ||
                          prefix[j + 1] != '=') &&
                         (j == 0 ||
                          std::string("=!<>+-*/%&|^").find(
                              prefix[j - 1]) == std::string::npos)) {
                    eq = j;
                    break;
                }
            }
            if (eq != std::string::npos) {
                std::size_t e = eq;
                while (e > 0 && std::isspace(static_cast<unsigned char>(
                                    prefix[e - 1])))
                    --e;
                const std::string bound = identEndingAt(prefix, e, nullptr);
                if (bound.empty())
                    continue;
                // Stored into a member: escapes this function.
                if (looksLikeMember(pm, &fn, bound))
                    continue;
                // Bound to a local: it must be read afterwards.
                if (hasToken(s.substr(after + 1, fn.bodyEnd - after - 1),
                             bound)) {
                    continue;
                }
                out.push_back(
                    {tu.path, lineOf(s, b), "must-check-io",
                     "'" + bound + "' binds the IoStatus of '" +
                         cs.callee +
                         "' but is never read afterwards; check "
                         ".ok() (or return it) so I/O failures "
                         "cannot pass silently"});
                continue;
            }
            // Discarded outright — including explicit (void) casts,
            // which still need an allow() comment with a rationale.
            out.push_back(
                {tu.path, lineOf(s, b), "must-check-io",
                 "result of IoStatus-returning call '" + cs.callee +
                     "' is discarded; the crash-safe I/O protocol "
                     "is void if a status is dropped — bind and "
                     "check it, return it, or suppress with a "
                     "rationale"});
        }
    }
}

// ---------------------------------------------------------------------
// parallel-capture-race
// ---------------------------------------------------------------------

namespace {

/** Identifiers declared inside a lambda body (approximate). */
std::set<std::string>
bodyLocals(const std::string &body)
{
    static const std::set<std::string> types = {
        "double",  "float",    "auto",     "bool",    "int",
        "unsigned", "signed",  "long",     "short",   "char",
        "size_t",  "int64_t",  "int32_t",  "uint32_t", "uint64_t",
        "int8_t",  "int16_t",  "ptrdiff_t", "Tensor", "Shape",
        "std"};
    std::set<std::string> locals;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= body.size(); ++i) {
        const char c = i < body.size() ? body[i] : ';';
        if (c != ';' && c != '{' && c != '}' && c != '(' && c != ')')
            continue;
        const auto toks = identTokens(body.substr(start, i - start));
        start = i + 1;
        if (toks.empty())
            continue;
        std::size_t t = 0;
        while (t < toks.size() &&
               (toks[t] == "const" || toks[t] == "static" ||
                toks[t] == "thread_local" || toks[t] == "constexpr" ||
                toks[t] == "volatile")) {
            ++t;
        }
        if (t >= toks.size() || !types.count(toks[t]))
            continue;
        while (t < toks.size() && types.count(toks[t]))
            ++t;
        if (t < toks.size())
            locals.insert(toks[t]);
    }
    return locals;
}

/** One detected write inside a parallel body. */
struct Write {
    std::string dest;     ///< base identifier written to
    std::size_t pos = 0;  ///< offset in the body
    std::string how;      ///< description for the message
    bool subscripted = false;
    bool subscriptUsesLocal = false;
    bool exempt = false;  ///< computed-lvalue/deref destination
};

/**
 * Parse the written destination ending just before `end` (exclusive,
 * ws already skipped): walks subscripts and member chains back to the
 * base identifier.
 */
Write
parseDest(const std::string &body, std::size_t end,
          const std::set<std::string> &locals)
{
    Write w;
    std::size_t i = end;
    while (true) {
        std::size_t p = prevNonWs(body, i);
        if (p == std::string::npos)
            return w;
        if (body[p] == ']') {
            const std::size_t lb = matchBack(body, p, '[', ']');
            if (lb == std::string::npos)
                return w;
            w.subscripted = true;
            for (const auto &t :
                 identTokens(body.substr(lb + 1, p - lb - 1))) {
                if (locals.count(t))
                    w.subscriptUsesLocal = true;
            }
            i = lb;
            continue;
        }
        if (body[p] == ')') {
            // Computed lvalue (deref of an expression): assume the
            // established disjoint-elements idiom.
            w.exempt = true;
            return w;
        }
        if (isIdentChar(body[p])) {
            std::size_t b = 0;
            const std::string id = identEndingAt(body, p + 1, &b);
            const std::size_t q = prevNonWs(body, b);
            if (q != std::string::npos &&
                (body[q] == '.' ||
                 (q > 0 && body[q] == '>' && body[q - 1] == '-'))) {
                i = body[q] == '.' ? q : q - 1;
                continue; // member chain: keep walking to the base
            }
            if (q != std::string::npos && body[q] == '*') {
                // Deref write through a pointer: disjoint idiom.
                w.exempt = true;
            }
            w.dest = id;
            w.pos = b;
            return w;
        }
        return w;
    }
}

const std::set<std::string> &
mutatingMethods()
{
    static const std::set<std::string> m = {
        "push_back", "emplace_back", "pop_back", "insert", "erase",
        "clear",     "resize",       "reserve",  "assign", "store",
        "fetch_add", "fetch_sub",    "exchange", "fill"};
    return m;
}

} // namespace

void
checkParallelCaptureRace(const ProjectModel &pm, const TuModel &tu,
                         std::vector<Finding> &out)
{
    const std::string &s = tu.stripped;
    for (const ParallelRegion &region : tu.parallelRegions) {
        const LambdaInfo &lam = region.lambda;
        const std::string body =
            s.substr(lam.bodyBegin, lam.bodyEnd - lam.bodyBegin);
        std::set<std::string> locals = bodyLocals(body);
        locals.insert(lam.params.begin(), lam.params.end());
        const FuncFact *fn = enclosingFunc(tu, lam.bodyBegin);

        std::vector<Write> writes;

        // Compound assignments and plain '=' writes.
        for (std::size_t i = 0; i + 1 < body.size(); ++i) {
            const char c = body[i];
            if (c != '=')
                continue;
            if (body[i + 1] == '=')
                { ++i; continue; }
            const char prev = i > 0 ? body[i - 1] : '\0';
            std::size_t destEnd = i;
            std::string how = "assigned";
            if (std::string("!<>").find(prev) != std::string::npos)
                continue;
            if (std::string("+-*/%&|^").find(prev) != std::string::npos) {
                destEnd = i - 1;
                how = std::string("'") + prev + "=' accumulated";
                if (i >= 2 &&
                    (body[i - 2] == '<' || body[i - 2] == '>')) {
                    destEnd = i - 2; // <<= >>=
                }
            }
            Write w = parseDest(body, destEnd, locals);
            if (w.dest.empty() && !w.exempt)
                continue;
            // Declaration-with-initializer: a type token directly
            // precedes the destination (`std::thread::id t = ...`).
            // The variable is a body local even when bodyLocals()
            // could not name its type.
            if (how == "assigned" && !w.subscripted && !w.dest.empty()) {
                const std::size_t before = prevNonWs(body, w.pos);
                if (before != std::string::npos &&
                    (isIdentChar(body[before]) || body[before] == '>' ||
                     body[before] == '&')) {
                    locals.insert(w.dest);
                    continue;
                }
            }
            w.how = how;
            writes.push_back(w);
        }

        // Increment / decrement.
        for (const char *op : {"++", "--"}) {
            std::size_t o = 0;
            while ((o = body.find(op, o)) != std::string::npos) {
                const std::size_t at = o;
                o += 2;
                // Postfix: ident (or subscript) directly before.
                const std::size_t p = prevNonWs(body, at);
                if (p != std::string::npos &&
                    (isIdentChar(body[p]) || body[p] == ']')) {
                    Write w = parseDest(body, p + 1, locals);
                    if (!w.dest.empty() || w.exempt) {
                        w.how = std::string("'") + op + "' mutated";
                        writes.push_back(w);
                    }
                    continue;
                }
                // Prefix: ident (with optional subscript) after.
                std::size_t q = skipWs(body, at + 2);
                if (q < body.size() && isIdentChar(body[q])) {
                    std::size_t e = q;
                    while (e < body.size() && isIdentChar(body[e]))
                        ++e;
                    Write w;
                    w.dest = body.substr(q, e - q);
                    w.pos = q;
                    w.how = std::string("'") + op + "' mutated";
                    const std::size_t br = skipWs(body, e);
                    if (br < body.size() && body[br] == '[') {
                        const std::size_t rb =
                            matchPairFwd(body, br, '[', ']');
                        if (rb != std::string::npos) {
                            w.subscripted = true;
                            for (const auto &t : identTokens(body.substr(
                                     br + 1, rb - br - 1))) {
                                if (locals.count(t))
                                    w.subscriptUsesLocal = true;
                            }
                        }
                    }
                    writes.push_back(w);
                }
            }
        }

        // Member calls: non-const methods and known mutators.
        for (std::size_t i = 0; i < body.size();) {
            if (!isIdentChar(body[i]) ||
                std::isdigit(static_cast<unsigned char>(body[i]))) {
                ++i;
                continue;
            }
            const std::size_t b = i;
            while (i < body.size() && isIdentChar(body[i]))
                ++i;
            const std::string meth = body.substr(b, i - b);
            const std::size_t lp = skipWs(body, i);
            if (lp >= body.size() || body[lp] != '(')
                continue;
            const std::size_t p = prevNonWs(body, b);
            if (p == std::string::npos)
                continue;
            const bool member =
                body[p] == '.' ||
                (p > 0 && body[p] == '>' && body[p - 1] == '-');
            if (!member)
                continue;
            const std::size_t dot = body[p] == '.' ? p : p - 1;
            const std::size_t r = prevNonWs(body, dot);
            if (r == std::string::npos || !isIdentChar(body[r]))
                continue;
            std::size_t rb = 0;
            const std::string recv = identEndingAt(body, r + 1, &rb);
            // Receiver must be a bare identifier, not a chain.
            const std::size_t rr = prevNonWs(body, rb);
            if (rr != std::string::npos &&
                (body[rr] == '.' || body[rr] == ']' ||
                 (rr > 0 && body[rr] == '>' && body[rr - 1] == '-'))) {
                continue;
            }
            if (recv.empty() || locals.count(recv))
                continue;
            const std::string type = resolveVarType(
                pm, tu, fn, recv, lam.bodyBegin + b);
            // A non-const call only counts as a write when it cannot
            // be a mere accessor: void return (in-place mutation) or
            // a known mutator name. Accessor-style overload pairs
            // (float *data() / const float *data() const) are how
            // kernels legitimately hoist pointers before the loop.
            bool mutates = false;
            const MethodFact *mf =
                type.empty() ? nullptr : pm.method(type, meth);
            if (mf)
                mutates = !mf->isConst && mf->retType == "void";
            if (!mutates)
                mutates = mutatingMethods().count(meth) > 0;
            if (!mutates)
                continue;
            Write w;
            w.dest = recv;
            w.pos = rb;
            w.how = "mutated via non-const call '." + meth + "(...)'";
            writes.push_back(w);
        }

        // Pass-by-non-const-reference to a known free function.
        for (std::size_t i = 0; i < body.size();) {
            if (!isIdentChar(body[i]) ||
                std::isdigit(static_cast<unsigned char>(body[i]))) {
                ++i;
                continue;
            }
            const std::size_t b = i;
            while (i < body.size() && isIdentChar(body[i]))
                ++i;
            const std::string callee = body.substr(b, i - b);
            const std::size_t lp = skipWs(body, i);
            if (lp >= body.size() || body[lp] != '(')
                continue;
            const std::size_t p = prevNonWs(body, b);
            if (p != std::string::npos &&
                (body[p] == '.' || body[p] == ':' ||
                 (p > 0 && body[p] == '>' && body[p - 1] == '-'))) {
                continue;
            }
            const auto fi = pm.freeFns.find(callee);
            if (fi == pm.freeFns.end() || fi->second.params.empty())
                continue;
            const std::size_t rp = matchPairFwd(body, lp, '(', ')');
            if (rp == std::string::npos)
                continue;
            // Split parameters and arguments on top-level commas.
            auto split = [](const std::string &text) {
                std::vector<std::string> parts;
                int depth = 0;
                std::size_t start = 0;
                for (std::size_t j = 0; j <= text.size(); ++j) {
                    const char c = j < text.size() ? text[j] : ',';
                    if (c == '(' || c == '<' || c == '[' || c == '{')
                        ++depth;
                    else if (c == ')' || c == '>' || c == ']' ||
                             c == '}')
                        --depth;
                    if (c == ',' && depth <= 0) {
                        parts.push_back(text.substr(start, j - start));
                        start = j + 1;
                    }
                }
                return parts;
            };
            const auto params = split(fi->second.params);
            const auto args =
                split(body.substr(lp + 1, rp - lp - 1));
            for (std::size_t a = 0;
                 a < args.size() && a < params.size(); ++a) {
                if (params[a].find('&') == std::string::npos ||
                    hasToken(params[a], "const")) {
                    continue;
                }
                const auto atoks = identTokens(args[a]);
                std::string arg = args[a];
                arg.erase(std::remove_if(
                              arg.begin(), arg.end(),
                              [](char ch) {
                                  return std::isspace(
                                      static_cast<unsigned char>(ch));
                              }),
                          arg.end());
                if (atoks.size() != 1 || atoks[0] != arg)
                    continue; // not a bare identifier
                if (locals.count(arg))
                    continue;
                Write w;
                w.dest = arg;
                w.pos = b;
                w.how = "passed by non-const reference to '" + callee +
                        "(...)'";
                writes.push_back(w);
            }
        }

        for (const Write &w : writes) {
            if (w.exempt || w.dest.empty() || locals.count(w.dest))
                continue;
            if (w.subscripted && w.subscriptUsesLocal)
                continue; // per-index write: disjoint by construction
            // std::atomic operations are synchronized by definition.
            if (resolveVarType(pm, tu, fn, w.dest,
                               lam.bodyBegin + w.pos) == "atomic") {
                continue;
            }
            // Capture analysis: only by-reference shared state races.
            bool shared = false;
            if (lam.refCaptures.count(w.dest)) {
                shared = true;
            } else if (lam.defaultRef &&
                       !lam.valueCaptures.count(w.dest)) {
                shared = true;
            } else if ((lam.capturesThis || lam.defaultValue ||
                        lam.defaultRef) &&
                       looksLikeMember(pm, fn, w.dest)) {
                shared = true; // members are shared through `this`
            }
            if (!shared)
                continue;
            out.push_back(
                {tu.path, lineOf(s, lam.bodyBegin + w.pos),
                 "parallel-capture-race",
                 "'" + w.dest + "' is " + w.how + " inside a " +
                     region.callee +
                     " body but is captured by reference and not "
                     "subscripted by a body-local index — a data "
                     "race; write through disjoint indices or use "
                     "parallelReduceOrdered"});
        }
    }
}

// ---------------------------------------------------------------------
// hot-loop-alloc
// ---------------------------------------------------------------------

void
checkHotLoopAlloc(const TuModel &tu, std::vector<Finding> &out)
{
    if (srcRelative(tu.path).empty())
        return;
    const std::string &s = tu.stripped;

    struct Region {
        std::size_t begin, end;
        const char *what;
    };
    std::vector<Region> regions;
    for (const ParallelRegion &r : tu.parallelRegions) {
        regions.push_back({r.lambda.bodyBegin, r.lambda.bodyEnd,
                           "parallelFor body"});
    }
    for (const KernelRegion &k : tu.kernelRegions)
        regions.push_back({k.begin, k.end, "ScopedKernel region"});

    std::set<std::size_t> flagged; // dedupe overlapping regions
    for (const Region &region : regions) {
        for (std::size_t i = region.begin;
             i < region.end && i < s.size();) {
            if (!isIdentChar(s[i]) ||
                std::isdigit(static_cast<unsigned char>(s[i]))) {
                ++i;
                continue;
            }
            const std::size_t b = i;
            while (i < s.size() && isIdentChar(s[i]))
                ++i;
            const std::string tok = s.substr(b, i - b);
            std::string what;
            if (tok == "new") {
                // `new` the keyword, not an identifier fragment.
                what = "heap allocation ('new')";
            } else if (tok == "malloc" || tok == "calloc" ||
                       tok == "realloc" || tok == "make_unique" ||
                       tok == "make_shared") {
                if (skipWs(s, i) < s.size() &&
                    (s[skipWs(s, i)] == '(' || s[skipWs(s, i)] == '<')) {
                    what = "heap allocation ('" + tok + "')";
                }
            } else if (tok == "Tensor") {
                const std::size_t n = skipWs(s, i);
                if (n >= s.size())
                    continue;
                if (s[n] == '(') {
                    what = "Tensor construction"; // temporary
                } else if (isIdentChar(s[n]) &&
                           !std::isdigit(
                               static_cast<unsigned char>(s[n]))) {
                    std::size_t e = n;
                    while (e < s.size() && isIdentChar(s[e]))
                        ++e;
                    const std::size_t t = skipWs(s, e);
                    if (t < s.size() &&
                        (s[t] == '(' || s[t] == '{' || s[t] == '=' ||
                         s[t] == ';')) {
                        what = "Tensor construction";
                    }
                }
            }
            if (what.empty() || !flagged.insert(b).second)
                continue;
            out.push_back(
                {tu.path, lineOf(s, b), "hot-loop-alloc",
                 what + " inside a " + region.what +
                     " allocates on every chunk or call; hoist the "
                     "buffer out of the hot region"});
        }
    }
}

// ---------------------------------------------------------------------
// env-registry
// ---------------------------------------------------------------------

std::map<std::string, int>
parseEnvDoc(const std::string &text)
{
    std::map<std::string, int> knobs;
    std::istringstream is(text);
    std::string ln;
    int line = 0;
    while (std::getline(is, ln)) {
        ++line;
        const std::size_t h = ln.find_first_not_of(" \t");
        if (h == std::string::npos || ln[h] != '|')
            continue;
        // First cell only: the knob column.
        const std::size_t cellEnd = ln.find('|', h + 1);
        const std::string cell =
            ln.substr(h + 1, cellEnd == std::string::npos
                                 ? std::string::npos
                                 : cellEnd - h - 1);
        const std::size_t at = cell.find("BERTPROF_");
        if (at == std::string::npos)
            continue;
        std::size_t e = at;
        while (e < cell.size() &&
               (std::isupper(static_cast<unsigned char>(cell[e])) ||
                std::isdigit(static_cast<unsigned char>(cell[e])) ||
                cell[e] == '_')) {
            ++e;
        }
        const std::string knob = cell.substr(at, e - at);
        if (knob.size() > 9 && !knobs.count(knob))
            knobs[knob] = line;
    }
    return knobs;
}

void
checkEnvReads(const TuModel &tu,
              const std::map<std::string, int> &docKnobs,
              std::vector<Finding> &out)
{
    if (srcRelative(tu.path).empty())
        return;
    for (const EnvRead &read : tu.envReads) {
        if (read.knob.empty() || docKnobs.count(read.knob))
            continue;
        out.push_back(
            {tu.path, read.line, "env-registry",
             "env knob '" + read.knob + "' is read here (via " +
                 read.via +
                 ") but missing from the README BERTPROF_* table; "
                 "document it so the registry cannot rot"});
    }
}

void
checkEnvDoc(const ProjectModel &pm, const std::string &envDocPath,
            const std::map<std::string, int> &docKnobs,
            std::vector<Finding> &out)
{
    std::set<std::string> read;
    for (const TuModel &tu : pm.tus) {
        if (srcRelative(tu.path).empty())
            continue;
        for (const EnvRead &r : tu.envReads)
            read.insert(r.knob);
    }
    for (const auto &kv : docKnobs) {
        if (read.count(kv.first))
            continue;
        out.push_back(
            {envDocPath, kv.second, "env-registry",
             "'" + kv.first +
                 "' is documented in the BERTPROF_* table but never "
                 "read in src/; remove the row or wire the knob "
                 "through runtime/env.h"});
    }
}

// ---------------------------------------------------------------------
// include-dag
// ---------------------------------------------------------------------

namespace {

/**
 * Transitive closure of the layer map: a layer may transitively
 * reach anything its allowed layers reach — including a dependency's
 * headers inevitably drags that dependency's own includes, so the
 * strict direct ordering is enforced by include-hygiene while the
 * transitive rule enforces the closure (which still forbids cycles,
 * anything reaching serve, or compute layers reaching telemetry).
 */
const std::map<std::string, std::set<std::string>> &
layerClosure()
{
    static const std::map<std::string, std::set<std::string>> closed =
        [] {
            std::map<std::string, std::set<std::string>> m = layerMap();
            bool changed = true;
            while (changed) {
                changed = false;
                for (auto &kv : m) {
                    std::set<std::string> grown = kv.second;
                    for (const auto &dep : kv.second) {
                        const auto di = m.find(dep);
                        if (di == m.end())
                            continue;
                        grown.insert(di->second.begin(),
                                     di->second.end());
                    }
                    if (grown.size() != kv.second.size()) {
                        kv.second = std::move(grown);
                        changed = true;
                    }
                }
            }
            return m;
        }();
    return closed;
}

} // namespace

void
checkIncludeDag(const ProjectModel &pm, std::vector<Finding> &out)
{
    const auto &layers = layerClosure();

    // Cycles first: a cyclic graph has no layering to speak of.
    for (const auto &cycle : pm.findIncludeCycles()) {
        std::string chain;
        for (const auto &n : cycle)
            chain += n + " -> ";
        chain += cycle.front();
        const auto pi = pm.nodePath.find(cycle.front());
        out.push_back(
            {pi != pm.nodePath.end() ? pi->second
                                     : "src/" + cycle.front(),
             1, "include-dag", "include cycle: " + chain});
    }

    for (const TuModel &tu : pm.tus) {
        const std::string node = srcRelative(tu.path);
        if (node.empty())
            continue;
        const std::size_t slash = node.find('/');
        if (slash == std::string::npos)
            continue;
        const std::string layer = node.substr(0, slash);
        const auto li = layers.find(layer);
        if (li == layers.end())
            continue;
        // Layers already reported by the direct include-hygiene rule.
        std::set<std::string> direct;
        for (const IncludeEdge &inc : tu.includes) {
            const std::size_t ts = inc.target.find('/');
            if (ts != std::string::npos)
                direct.insert(inc.target.substr(0, ts));
        }
        // BFS so the reported chain is a shortest include path.
        std::map<std::string, std::string> parent;
        std::deque<std::string> work;
        work.push_back(node);
        parent[node] = "";
        std::set<std::string> reportedLayers;
        while (!work.empty()) {
            const std::string cur = work.front();
            work.pop_front();
            const auto ei = pm.includeGraph.find(cur);
            if (ei == pm.includeGraph.end())
                continue;
            for (const std::string &next : ei->second) {
                if (parent.count(next))
                    continue;
                parent[next] = cur;
                work.push_back(next);
                const std::size_t ts = next.find('/');
                if (ts == std::string::npos)
                    continue;
                const std::string tlayer = next.substr(0, ts);
                if (!layers.count(tlayer) || li->second.count(tlayer))
                    continue;
                if (layerExceptions().count(next))
                    continue;
                if (direct.count(tlayer))
                    continue; // include-hygiene reports the direct edge
                if (!reportedLayers.insert(tlayer).second)
                    continue;
                // Reconstruct the chain for the message.
                std::vector<std::string> chain = {next};
                for (std::string at = cur; !at.empty();
                     at = parent[at]) {
                    chain.push_back(at);
                }
                std::string text;
                for (auto it = chain.rbegin(); it != chain.rend();
                     ++it) {
                    text += (it == chain.rbegin() ? "" : " -> ") + *it;
                }
                // The finding anchors at the direct include that
                // starts the chain (chain[last-1] after reversal).
                int line = 1;
                const std::string &first =
                    chain.size() >= 2 ? chain[chain.size() - 2] : next;
                for (const IncludeEdge &inc : tu.includes) {
                    if (inc.target == first) {
                        line = inc.line;
                        break;
                    }
                }
                out.push_back(
                    {tu.path, line, "include-dag",
                     "src/" + layer +
                         " transitively includes layer '" + tlayer +
                         "' which is not below it in the dependency "
                         "DAG (" +
                         text +
                         "); break the chain or restructure the "
                         "layers"});
            }
        }
    }
}

} // namespace bplint
