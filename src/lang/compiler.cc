#include "src/lang/compiler.h"

#include "src/lang/codegen.h"
#include "src/lang/parser.h"

namespace hemlock {

const char* HemCPrelude() {
  return R"(
static int strlen(char *s) {
  int n;
  n = 0;
  while (s[n] != 0) { n = n + 1; }
  return n;
}
static int strcpy(char *dst, char *src) {
  int i;
  i = 0;
  while (src[i] != 0) { dst[i] = src[i]; i = i + 1; }
  dst[i] = 0;
  return i;
}
static int strcmp(char *a, char *b) {
  int i;
  i = 0;
  while (a[i] != 0 && a[i] == b[i]) { i = i + 1; }
  return a[i] - b[i];
}
static int memcpy(char *dst, char *src, int n) {
  int i;
  for (i = 0; i < n; i = i + 1) { dst[i] = src[i]; }
  return n;
}
static int memset(char *dst, int v, int n) {
  int i;
  for (i = 0; i < n; i = i + 1) { dst[i] = v; }
  return n;
}
static int puts(char *s) {
  sys_write(1, s, strlen(s));
  return 0;
}
static int putint(int n) {
  char buf[12];
  int i;
  int neg;
  i = 12;
  neg = 0;
  if (n < 0) { neg = 1; i = i - 1; buf[i] = '0' - n % 10; n = 0 - n / 10; }
  else if (n == 0) { i = i - 1; buf[i] = '0'; }
  while (n > 0) { i = i - 1; buf[i] = '0' + n % 10; n = n / 10; }
  if (neg) { i = i - 1; buf[i] = '-'; }
  sys_write(1, &buf[i], 12 - i);
  return 12 - i;
}
)";
}

Result<ObjectFile> CompileHemC(const std::string& source, const std::string& module_name,
                               const CompileOptions& options) {
  std::string unit = source;
  if (options.include_prelude) {
    // The prelude goes *after* user code so user line numbers stay meaningful; symbol
    // collection is order-insensitive.
    unit += "\n";
    unit += HemCPrelude();
  }
  ASSIGN_OR_RETURN(std::unique_ptr<Program> program, ParseSource(unit));
  ASSIGN_OR_RETURN(ObjectFile obj, GenerateCode(*program, module_name));
  obj.module_list() = options.module_list;
  obj.search_path() = options.search_path;
  return obj;
}

}  // namespace hemlock
