// Fixture: backslash line-splices. The first comment continues across
// the splice, so the rand()/srand() on the next physical line are
// comment text, not code — rng-discipline stays silent. The spliced
// string literal stays one token. The mutable global after both is the
// file's only finding, and the analyzer_test pins its physical line to
// prove the splices did not shift the line mapping.
// EXPECT: mutable-global 1

// this comment splices onto the next physical line \
rand(); srand(time(nullptr));

const char* spliced_text = "split \
across physical lines";

int mutable_counter = 0;  // line 15: the one real finding here
